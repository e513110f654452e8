#include "host.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Value of the "key:" line of a /proc status-style file, or 0. */
std::uint64_t
statusField(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0 &&
            line.size() > key.size() && line[key.size()] == ':')
            return std::stoull(line.substr(key.size() + 1));
    }
    return 0;
}

} // namespace

ProcCounters
selfCounters()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcCounters c;
    c.cpuSeconds = clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
    c.minorFaults = static_cast<std::uint64_t>(ru.ru_minflt);
    c.voluntarySwitches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    c.involuntarySwitches = static_cast<std::uint64_t>(ru.ru_nivcsw);
    c.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return c;
}

ProcCounters
pidCounters(pid_t pid)
{
    ProcCounters c;
    const std::string base = "/proc/" + std::to_string(pid);
    {
        std::ifstream in(base + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name, which may
        // itself contain spaces: field 3 is the state.
        const std::size_t close = text.rfind(')');
        if (close != std::string::npos) {
            std::istringstream fields(text.substr(close + 2));
            std::vector<std::string> f;
            std::string tok;
            while (fields >> tok)
                f.push_back(tok);
            // f[0] is field 3; minflt is field 10, utime 14, stime 15.
            if (f.size() > 12) {
                const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
                c.minorFaults = std::stoull(f[7]);
                c.cpuSeconds =
                    static_cast<double>(std::stoull(f[11]) +
                                        std::stoull(f[12])) /
                    hz;
            }
        }
    }
    double onCpuNs = 0.0;
    if (DIR *dir = opendir((base + "/task").c_str())) {
        while (dirent *e = readdir(dir)) {
            if (e->d_name[0] == '.')
                continue;
            const std::string task = base + "/task/" + e->d_name;
            std::ifstream sched(task + "/schedstat");
            double ns = 0.0;
            if (sched >> ns)
                onCpuNs += ns;
            const std::string status = task + "/status";
            c.voluntarySwitches +=
                statusField(status, "voluntary_ctxt_switches");
            c.involuntarySwitches +=
                statusField(status, "nonvoluntary_ctxt_switches");
        }
        closedir(dir);
    }
    // The threads' schedstat run time has ns resolution where stat's
    // utime + stime has 10 ms ticks; it misses threads that exited,
    // which the server's long-lived threads never do mid-window.
    if (onCpuNs > 0.0)
        c.cpuSeconds = onCpuNs * 1e-9;
    const std::string io = base + "/io";
    c.syscalls = statusField(io, "syscr") + statusField(io, "syscw");
    c.peakRssMb =
        static_cast<double>(statusField(base + "/status", "VmHWM")) / 1024.0;
    return c;
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

std::uint64_t
hostStealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    in >> cpu;
    for (auto &x : v)
        in >> x;
    return cpu == "cpu" ? v[7] : 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

int
onlineCpus()
{
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

} // namespace perfbench
