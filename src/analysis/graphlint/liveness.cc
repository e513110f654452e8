/**
 * @file
 * Buffer liveness pass: first-def/last-use intervals over a captured
 * forward region, static peak-live-bytes, a greedy first-fit arena
 * packing and a ranked buffer-reuse report (see analyze.h).
 */

#include "analysis/graphlint/analyze.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace aib::analysis::graphlint {

namespace {

std::int64_t
shapeBytes(const Shape &s)
{
    return 4 * numel(s);
}

/** Planner lifetime: [start, stop] in forward-op indices. */
struct Life {
    int start = 0;
    int stop = 0;
    std::int64_t bytes = 0;
    std::size_t interval = 0; ///< index into report.intervals
};

bool
overlaps(const Life &a, const Life &b)
{
    return a.start <= b.stop && b.start <= a.stop;
}

/**
 * Greedy first-fit offset packing: place buffers (largest first) at
 * the lowest offset that does not collide with any already-placed
 * buffer of overlapping lifetime. Returns the arena size.
 */
std::int64_t
packArena(std::vector<Life> lives)
{
    std::sort(lives.begin(), lives.end(),
              [](const Life &a, const Life &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.start < b.start;
              });
    struct Placed {
        std::int64_t offset;
        Life life;
    };
    std::vector<Placed> placed;
    std::int64_t arena = 0;
    for (const Life &life : lives) {
        // Collect live-range conflicts sorted by offset, then scan
        // for the first gap wide enough.
        std::vector<const Placed *> conflicts;
        for (const Placed &p : placed) {
            if (overlaps(p.life, life))
                conflicts.push_back(&p);
        }
        std::sort(conflicts.begin(), conflicts.end(),
                  [](const Placed *a, const Placed *b) {
                      return a->offset < b->offset;
                  });
        std::int64_t offset = 0;
        for (const Placed *p : conflicts) {
            if (offset + life.bytes <= p->offset)
                break;
            offset = std::max(offset, p->offset + p->life.bytes);
        }
        placed.push_back({offset, life});
        arena = std::max(arena, offset + life.bytes);
    }
    return arena;
}

} // namespace

LivenessReport
analyzeLiveness(const graph::CapturedGraph &g,
                const std::vector<graph::TensorId> &resident)
{
    LivenessReport report;
    const std::unordered_set<graph::TensorId> resident_set(
        resident.begin(), resident.end());

    std::vector<const graph::CapturedOp *> fwd;
    for (const graph::CapturedOp &op : g.ops) {
        if (op.phase == graph::Phase::Forward)
            fwd.push_back(&op);
    }
    const int n = static_cast<int>(fwd.size());

    std::unordered_map<graph::TensorId, std::size_t> index;
    auto ensure = [&](graph::TensorId id, std::int64_t bytes,
                      int def, std::string_view producer) {
        auto it = index.find(id);
        if (it != index.end())
            return it->second;
        BufferInterval b;
        b.id = id;
        b.bytes = bytes;
        b.def = def;
        b.resident = resident_set.count(id) != 0;
        b.producer = std::string(producer);
        const std::size_t at = report.intervals.size();
        report.intervals.push_back(std::move(b));
        index.emplace(id, at);
        return at;
    };

    for (int k = 0; k < n; ++k) {
        const graph::CapturedOp &op = *fwd[k];
        for (std::size_t i = 0; i < op.inputIds.size(); ++i) {
            const graph::TensorId id = op.inputIds[i];
            if (id == 0)
                continue;
            const Shape in_shape = i < op.inputShapes.size()
                                       ? op.inputShapes[i]
                                       : Shape{};
            const std::size_t at =
                ensure(id, shapeBytes(in_shape), -1, "");
            report.intervals[at].lastUse = k;
        }
        if (op.outputId != 0) {
            // An alias op (hostToDevice records in == out) or an
            // already-seen id keeps its first definition; ensure()
            // also handles the in == out case, where the input loop
            // above has just created the interval with def == -1.
            auto it = index.find(op.outputId);
            if (it == index.end()) {
                ensure(op.outputId, shapeBytes(op.outputShape), k,
                       op.name);
            } else if (report.intervals[it->second].def < 0 &&
                       report.intervals[it->second].lastUse == k) {
                // First sighting was as this very op's input: the op
                // defines the buffer in place.
                report.intervals[it->second].def = k;
                report.intervals[it->second].producer =
                    std::string(op.name);
            }
        }
    }

    // Epoch cuts, for the dead-buffer rule: index k is a cut when no
    // later op reads any op output defined at or before k — the
    // dataflow restarts on fresh sources there, as it does at every
    // pipeline-stage boundary of a scenario region. The last
    // definition before a cut is a stage output handed off outside
    // the capture (digest fold, host read), not dead compute.
    // Sources (def < 0) are inputs, not stage products, and do not
    // link epochs.
    std::vector<int> last_read_from(static_cast<std::size_t>(n) + 1,
                                    -1);
    for (const BufferInterval &b : report.intervals) {
        if (b.def < 0)
            continue;
        last_read_from[static_cast<std::size_t>(b.def)] =
            std::max(last_read_from[static_cast<std::size_t>(b.def)],
                     std::max(b.lastUse, b.def));
    }
    for (int k = 1; k < n; ++k)
        last_read_from[static_cast<std::size_t>(k)] =
            std::max(last_read_from[static_cast<std::size_t>(k)],
                     last_read_from[static_cast<std::size_t>(k - 1)]);
    const auto is_epoch_end = [&](int k) {
        return last_read_from[static_cast<std::size_t>(k)] <= k;
    };

    // Event sweep: +bytes at start, -bytes after stop. live(k) counts
    // every buffer with start <= k <= stop, so an op's inputs and its
    // output coexist at its index, as they do in the kernel.
    std::vector<std::int64_t> delta_planner(
        static_cast<std::size_t>(n) + 2, 0);
    std::vector<std::int64_t> delta_scope(
        static_cast<std::size_t>(n) + 2, 0);
    std::vector<Life> lives;
    for (std::size_t bi = 0; bi < report.intervals.size(); ++bi) {
        const BufferInterval &b = report.intervals[bi];
        if (b.resident) {
            report.residentBytes += b.bytes;
            continue;
        }
        const int start = std::max(b.def, 0);
        const int stop = std::max(b.lastUse, start);
        delta_planner[static_cast<std::size_t>(start)] += b.bytes;
        delta_planner[static_cast<std::size_t>(stop) + 1] -= b.bytes;
        // Scope semantics: sources (def < 0) are locals or full-
        // expression temporaries of the region body — alive until the
        // region returns. Op outputs are freed when the last local
        // referencing them rebinds, approximated by last use.
        const int scope_stop = b.def < 0 ? (n > 0 ? n - 1 : 0) : stop;
        delta_scope[static_cast<std::size_t>(start)] += b.bytes;
        delta_scope[static_cast<std::size_t>(scope_stop) + 1] -=
            b.bytes;
        if (b.def >= 0) {
            report.totalAllocBytes += b.bytes;
            if (b.bytes > 0) {
                Life life;
                life.start = start;
                life.stop = stop;
                life.bytes = b.bytes;
                life.interval = bi;
                lives.push_back(life);
            }
        }
        if (b.def >= 0 && b.lastUse < 0 && !is_epoch_end(b.def)) {
            Diagnostic d;
            d.rule = "dead-buffer";
            d.severity = Severity::Warning;
            d.subject = report.intervals[bi].producer;
            d.message =
                "op #" + std::to_string(b.def) + " ('" +
                report.intervals[bi].producer + "') allocates " +
                std::to_string(b.bytes) +
                " bytes that no later op reads and that is not the "
                "region output; the computation is dead";
            report.diagnostics.push_back(std::move(d));
        }
    }
    std::int64_t live_planner = 0, live_scope = 0;
    for (int k = 0; k < n; ++k) {
        live_planner += delta_planner[static_cast<std::size_t>(k)];
        live_scope += delta_scope[static_cast<std::size_t>(k)];
        report.peakLiveBytes =
            std::max(report.peakLiveBytes, live_planner);
        report.peakScopeBytes =
            std::max(report.peakScopeBytes, live_scope);
    }

    // Arena packing covers the buffers a planner would own: op
    // outputs. Region inputs arrive from outside the arena.
    report.arenaBytes = packArena(lives);

    // Ranked reuse pairings: for each buffer (largest first), claim
    // the smallest earlier buffer that is big enough and whose
    // planner lifetime has ended before this one starts.
    std::vector<std::size_t> order(lives.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return lives[a].bytes > lives[b].bytes;
              });
    std::vector<bool> claimed(lives.size(), false);
    for (const std::size_t i : order) {
        const Life &into = lives[i];
        std::size_t best = lives.size();
        for (std::size_t j = 0; j < lives.size(); ++j) {
            if (claimed[j] || j == i)
                continue;
            const Life &from = lives[j];
            if (from.stop >= into.start || from.bytes < into.bytes)
                continue;
            if (best == lives.size() ||
                from.bytes < lives[best].bytes)
                best = j;
        }
        if (best == lives.size())
            continue;
        claimed[best] = true;
        ReuseCandidate r;
        r.from = report.intervals[lives[best].interval].id;
        r.into = report.intervals[into.interval].id;
        r.fromOp = report.intervals[lives[best].interval].def;
        r.intoOp = report.intervals[into.interval].def;
        r.bytes = into.bytes;
        report.reuse.push_back(r);
    }
    std::sort(report.reuse.begin(), report.reuse.end(),
              [](const ReuseCandidate &a, const ReuseCandidate &b) {
                  return a.bytes > b.bytes;
              });
    return report;
}

std::vector<graph::TensorId>
residentIds(const nn::Module &model)
{
    std::vector<graph::TensorId> out;
    for (const nn::NamedParam &p : model.namedParameters())
        out.push_back(graph::tensorId(p.tensor));
    for (const nn::NamedParam &b : model.namedBuffers())
        out.push_back(graph::tensorId(b.tensor));
    return out;
}

} // namespace aib::analysis::graphlint
