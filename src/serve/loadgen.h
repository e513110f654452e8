/**
 * @file
 * Open-loop load generation for the serving subsystem.
 *
 * MLPerf Inference's server scenario sends queries at Poisson
 * arrivals regardless of whether the system keeps up ("open loop"),
 * which is what exposes queueing delay and tail latency; a
 * closed-loop driver that waits for each response before sending the
 * next can never overload the system and measures peak throughput
 * instead. This module generates the arrival schedule as data — a
 * seeded, reproducible vector of arrival offsets — so the same trace
 * can be replayed live (real sleeps), fed to the deterministic
 * replay engine, or checked in as a regression fixture.
 */

#ifndef AIB_SERVE_LOADGEN_H
#define AIB_SERVE_LOADGEN_H

#include <cstdint>
#include <vector>

namespace aib::serve {

/**
 * Arrival offsets (microseconds since run start, non-decreasing) of
 * @p queries queries at @p qps mean arrival rate: exponential
 * inter-arrival gaps drawn from a generator seeded with @p seed
 * (a Poisson process, the paper's heavy-traffic model). The trace
 * depends only on the arguments, never on wall clock. Throws
 * std::invalid_argument unless @p qps is finite and > 0.
 */
std::vector<double> poissonTrace(std::uint64_t seed, double qps,
                                 int queries);

/** Evenly spaced arrivals at @p qps (deterministic pacing). */
std::vector<double> uniformTrace(double qps, int queries);

} // namespace aib::serve

#endif // AIB_SERVE_LOADGEN_H
