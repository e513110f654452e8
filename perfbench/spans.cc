#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last. */
thread_local std::vector<int> t_open;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

Ns
SpanRecorder::at(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

std::uint32_t
SpanRecorder::trackOfThisThread()
{
    const auto [it, inserted] = tracks_.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(tracks_.size() + 1));
    return it->second;
}

int
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    span.track = trackOfThisThread();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

int
SpanRecorder::open(const char *name, const char *layer, std::string detail,
                   std::uint64_t request)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.detail = std::move(detail);
    span.request = request;
    span.parent = t_open.empty() ? -1 : t_open.back();
    span.start = now();
    span.end = span.start;
    const int index = add(std::move(span));
    t_open.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    if (!enabled_ || index < 0)
        return;
    const Ns end = now();
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanRecorder::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &meta) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    bool first = true;
    for (const auto &[k, v] : meta) {
        std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",",
                     jsonEscape(k).c_str(), jsonEscape(v).c_str());
        first = false;
    }
    std::fprintf(f, "},\"traceEvents\":[\n");
    first = true;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const std::string name = jsonEscape(
            s.detail.empty() ? s.name : std::string(s.name) + " " + s.detail);
        const double ts = static_cast<double>(s.start) / 1000.0;
        const double dur = static_cast<double>(s.end - s.start) / 1000.0;
        const std::string args =
            "{\"span\":" + std::to_string(i) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"request\":" + std::to_string(s.request) + "}";
        if (s.async) {
            // Requests overlap on one thread, so they are async slices
            // keyed by request id rather than nested complete events.
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\","
                         "\"id\":%zu,\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                         "\"args\":%s},\n"
                         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\","
                         "\"id\":%zu,\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                         first ? "" : ",\n", name.c_str(), s.layer, i, ts,
                         s.track, args.c_str(), name.c_str(), s.layer, i,
                         ts + dur, s.track);
        } else {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                         "\"args\":%s}",
                         first ? "" : ",\n", name.c_str(), s.layer, ts, dur,
                         s.track, args.c_str());
        }
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::vector<Ns>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<Ns, Ns>>> children(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<Ns> out(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        Ns covered = 0;
        Ns reach = s.start; // end of the covered prefix so far
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        out[i] = std::max<Ns>(0, (s.end - s.start) - covered);
    }
    return out;
}

std::map<std::string, Ns>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<Ns> self = selfTimes(spans);
    std::map<std::string, Ns> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[std::string(spans[i].layer) + "/" + spans[i].name] += self[i];
    return out;
}

} // namespace perfbench
