/**
 * @file
 * Checks of the statistics and span code on hand-computed inputs.
 * Exit status 0 when every check holds; each failure is printed.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expectNear(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        ++g_failures;
    }
}

Span
span(Ns start, Ns end, int parent)
{
    Span s;
    s.name = "s";
    s.layer = "l";
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

} // namespace

int
main()
{
    // Percentiles: linear interpolation between closest ranks.
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expectNear("p0", percentile(ten, 0), 1.0);
    expectNear("p100", percentile(ten, 100), 10.0);
    expectNear("p50 of 1..10", percentile(ten, 50), 5.5);  // h = 4.5
    expectNear("p90 of 1..10", percentile(ten, 90), 9.1);  // h = 8.1
    expectNear("p99 of 1..10", percentile(ten, 99), 9.91); // h = 8.91
    expectNear("p25 of 1..10", percentile(ten, 25), 3.25); // h = 2.25
    expectNear("p clamps high", percentile(ten, 150), 10.0);
    expectNear("p clamps low", percentile(ten, -5), 1.0);
    expectNear("p of one", percentile({42.0}, 99), 42.0);
    expectNear("p of none", percentile({}, 50), 0.0);

    // Median of repeats: odd takes the middle, even the midpoint.
    expectNear("median odd", median({0.9, 0.2, 0.5}), 0.5);
    expectNear("median even", median({4, 1, 3, 2}), 2.5);
    expectNear("median with outlier", median({1.0, 1.1, 1.2, 1.3, 90}), 1.2);

    // Span self time: parent [0,100) with children [10,30) and
    // [20,50) (overlapping: cover [10,50) = 40) and [90,120) (clipped
    // to [90,100) = 10): self = 100 - 50 = 50. The grandchild [12,18)
    // of the first child leaves that child 20 - 6 = 14.
    const std::vector<Span> spans = {
        span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
        span(90, 120, 0), span(12, 18, 1), span(200, 260, -1),
    };
    const std::vector<Ns> self = selfTimes(spans);
    expectNear("root self", static_cast<double>(self[0]), 50.0);
    expectNear("child self", static_cast<double>(self[1]), 14.0);
    expectNear("overlapping child self", static_cast<double>(self[2]), 30.0);
    expectNear("clipped child self", static_cast<double>(self[3]), 30.0);
    expectNear("leaf self", static_cast<double>(self[4]), 6.0);
    expectNear("lone root self", static_cast<double>(self[5]), 60.0);
    const auto byName = selfTimeByName(spans);
    expectNear("self by name", static_cast<double>(byName.at("l/s")),
               50.0 + 14 + 30 + 30 + 6 + 60);

    // The recorder nests open spans on one thread and stores nothing
    // when disabled.
    SpanRecorder on(true);
    const int outer = on.open("outer", "core");
    const int inner = on.open("inner", "core");
    on.close(inner);
    on.close(outer);
    const std::vector<Span> got = on.spans();
    if (got.size() != 2 || got[1].parent != outer || got[0].parent != -1 ||
        got[0].end < got[1].end) {
        std::printf("FAIL recorder nesting\n");
        ++g_failures;
    }
    SpanRecorder off(false);
    off.close(off.open("x", "core"));
    if (off.size() != 0) {
        std::printf("FAIL disabled recorder stored spans\n");
        ++g_failures;
    }

    std::printf("perfbench selftest: %s (%d failures)\n",
                g_failures ? "FAILED" : "ok", g_failures);
    return g_failures ? 1 : 0;
}
