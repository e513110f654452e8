#include "serve/report.h"

#include "core/json.h"

namespace aib::serve {

double
ServingReport::meanBatchSize() const
{
    std::uint64_t n = 0;
    std::uint64_t queries = 0;
    for (std::size_t s = 0; s < batchSizeCounts.size(); ++s) {
        n += batchSizeCounts[s];
        queries += batchSizeCounts[s] * (s + 1);
    }
    return n > 0 ? static_cast<double>(queries) / static_cast<double>(n)
                 : 0.0;
}

std::uint64_t
ServingReport::batches() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t c : batchSizeCounts)
        n += c;
    return n;
}

double
ServingReport::latencyMsP(double pct) const
{
    return latency.percentileUs(pct) / 1e3;
}

namespace {

void
writeLatencyMs(core::json::Writer &w, const LatencyHistogram &h)
{
    w.beginObject().field("mean", h.meanUs() / 1e3);
    w.field("p50", h.percentileUs(50.0) / 1e3);
    w.field("p90", h.percentileUs(90.0) / 1e3);
    w.field("p95", h.percentileUs(95.0) / 1e3);
    w.field("p99", h.percentileUs(99.0) / 1e3);
    w.field("max", h.maxUs() / 1e3).endObject();
}

/** The batching options; the document header repeats the first run's. */
void
writeOptions(core::json::Writer &w, const ServingReport &r)
{
    w.field("mode", r.mode).field("workers", r.workers);
    w.field("maxBatch", r.maxBatch).field("maxDelayUs", r.maxDelayUs);
}

void
writeServingReport(core::json::Writer &w, const ServingReport &r)
{
    w.beginObject().field("id", r.benchmarkId);
    writeOptions(w, r);
    w.field("seed", r.seed).field("issued", r.issued);
    w.field("completed", r.completed).field("rejected", r.rejected);
    w.field("peakQueueDepth", r.peakQueueDepth);
    w.field("wallSeconds", r.wallSeconds);
    w.field("throughputQps", r.throughputQps);
    if (r.mode == "open")
        w.field("openLoopQps", r.openLoopQps);
    writeLatencyMs(w.key("latencyMs"), r.latency);
    w.field("meanBatchSize", r.meanBatchSize());
    w.key("batchSizeCounts").beginObject();
    for (std::size_t s = 0; s < r.batchSizeCounts.size(); ++s) {
        if (r.batchSizeCounts[s] != 0)
            w.field(std::to_string(s + 1), r.batchSizeCounts[s]);
    }
    w.endObject().field("energyPerQueryMj", r.energyPerQueryMj);
    w.field("simServiceMsPerQuery", r.simServiceMsPerQuery).endObject();
}

} // namespace

std::string
reportsToJson(const std::vector<ServingReport> &reports)
{
    core::json::Writer w;
    w.beginObject().field("schema", "aib.serve/1");
    if (!reports.empty())
        writeOptions(w, reports.front());
    w.key("benchmarks").beginArray();
    for (const ServingReport &r : reports)
        writeServingReport(w, r);
    w.endArray().endObject();
    return w.str();
}

} // namespace aib::serve
