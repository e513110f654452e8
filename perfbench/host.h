/**
 * @file
 * What the benchmark reads about the host and about processes:
 * the platform header every output starts with, CPU and fault
 * counters from getrusage and /proc, and the host's steal ticks.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/** Counters of one process at one instant. */
struct ProcCounters {
    double cpuSeconds = 0.0;        ///< user + sys
    std::uint64_t minorFaults = 0;
    std::uint64_t voluntarySwitches = 0;   ///< summed over its threads
    std::uint64_t involuntarySwitches = 0; ///< summed over its threads
    std::uint64_t syscalls = 0;     ///< syscr + syscw (/proc/<pid>/io)
    double peakRssMb = 0.0;         ///< VmHWM / ru_maxrss
};

/** This process, from getrusage(RUSAGE_SELF) and the CPU clock. */
ProcCounters selfCounters();

/**
 * Another process, from /proc/<pid>/stat (minor faults; CPU when
 * schedstat is missing), /proc/<pid>/task/<tid>/schedstat (CPU of
 * each live thread, ns resolution),
 * /proc/<pid>/task/<tid>/status (context switches of each live
 * thread), /proc/<pid>/io (syscalls) and /proc/<pid>/status (VmHWM).
 * Fields that cannot be read stay 0.
 */
ProcCounters pidCounters(pid_t pid);

/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/** Steal ticks of the whole host so far (/proc/stat, field 8). */
std::uint64_t hostStealTicks();

/** The "model name" line of /proc/cpuinfo. */
std::string cpuModel();

/** Online processors. */
int onlineCpus();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
