/**
 * @file
 * Order statistics over samples the benchmark recorded itself.
 *
 * Every percentile the benchmark reports comes from here, never from
 * serve::LatencyHistogram buckets: those have 8 buckets per octave,
 * so a percentile read from them moves in ~9 % steps.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <vector>

namespace perfbench {

/**
 * The @p p-th percentile (0..100) of @p samples by linear
 * interpolation between closest ranks: rank h = (n-1) p / 100, value
 * x[floor h] + (h - floor h) (x[floor h + 1] - x[floor h]) over the
 * sorted samples. This is numpy's default ("linear") method. Returns
 * 0 for an empty input; @p p outside [0, 100] is clamped.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
