/**
 * @file
 * Host cost per simulated step, per detection lane, on the paper's
 * Table 1 protocol: all 14 registry apps at scale 8 with calibrated
 * costs, five seeds each, under Native, TSan and TxRace-ProfLoopcut
 * (the protocol of perfbench's table1-long workload).
 *
 *   bench_lanes [--seed N]
 *
 * Every run executes on the calling thread and is timed with
 * CLOCK_THREAD_CPUTIME_ID, so the figure is CPU time of this thread
 * only: pin the process to one CPU (taskset -c 2 bench_lanes) and
 * other load on the machine changes it little. It prints one JSON
 * line per lane:
 *
 *   lane            the mode's display name
 *   runs            runs in the lane
 *   cpu_s           thread CPU seconds spent in core::runProgram
 *   counted_steps   machine.steps of the measured runs
 *   prerun_steps    steps of ProfLoopcut's profiling pre-runs, which
 *                   execute inside runProgram but are not counted
 *   ns_per_counted_step, ns_per_executed_step
 *                   cpu_s over counted, and over counted + pre-run
 *   digest          FNV-1a over every run's total cost, counted and
 *                   pre-run steps: two builds that simulate the same
 *                   thing print the same digest
 *
 * scripts/ab_lanes.py builds this file against two revisions of the
 * library (bench/lanes/CMakeLists.txt), alternates pinned runs of the
 * two binaries and reports each lane's paired ratio.
 */

#include <time.h>

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/driver.hh"
#include "support/log.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr uint64_t kScale = 8;
constexpr uint64_t kTrials = 5;
constexpr std::array<core::RunMode, 3> kLanes = {
    core::RunMode::Native, core::RunMode::TSan,
    core::RunMode::TxRaceProfLoopcut};

/** A whole-string decimal count, or fatal(). (Self-contained: the
 *  A/B script builds this file against older library trees too.) */
uint64_t
countArg(const char *flag, const char *text)
{
    uint64_t v = 0;
    const char *end = text + std::strlen(text);
    auto [p, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || p != end || p == text)
        fatal("%s: '%s' is not an unsigned integer", flag, text);
    return v;
}

int64_t
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Lane
{
    uint64_t runs = 0;
    int64_t cpuNs = 0;
    uint64_t counted = 0;
    uint64_t prerun = 0;
    uint64_t digest = 0xcbf29ce484222325ULL;
};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = countArg("--seed", argv[++i]);
        else
            fatal("usage: bench_lanes [--seed N]");
    }
    setLogLevel(LogLevel::Quiet);

    workloads::WorkloadParams params;
    params.scale = kScale;
    params.calibrate = true;
    std::vector<workloads::AppModel> apps;
    for (const std::string &name : workloads::appNames())
        apps.push_back(workloads::makeApp(name, params));

    std::array<Lane, kLanes.size()> lanes{};
    for (const workloads::AppModel &app : apps) {
        for (uint64_t trial = 0; trial < kTrials; ++trial) {
            for (size_t l = 0; l < kLanes.size(); ++l) {
                core::RunConfig rc;
                rc.mode = kLanes[l];
                rc.machine = app.machine;
                rc.machine.seed = seed * kTrials + trial;
                const int64_t t0 = threadCpuNs();
                core::RunResult r = core::runProgram(app.program, rc);
                const int64_t t1 = threadCpuNs();
                Lane &lane = lanes[l];
                const uint64_t steps = r.stats.get("machine.steps");
                ++lane.runs;
                lane.cpuNs += t1 - t0;
                lane.counted += steps;
                lane.prerun += r.profileRun.steps;
                lane.digest = fnvMix(lane.digest, r.totalCost);
                lane.digest = fnvMix(lane.digest, steps);
                lane.digest = fnvMix(lane.digest, r.profileRun.steps);
            }
        }
    }
    for (size_t l = 0; l < kLanes.size(); ++l) {
        const Lane &lane = lanes[l];
        const double ns = static_cast<double>(lane.cpuNs);
        const double executed =
            static_cast<double>(lane.counted + lane.prerun);
        std::printf(
            "{\"lane\": \"%s\", \"seed\": %llu, \"runs\": %llu, "
            "\"cpu_s\": %.6f, \"counted_steps\": %llu, "
            "\"prerun_steps\": %llu, \"ns_per_counted_step\": %.3f, "
            "\"ns_per_executed_step\": %.3f, "
            "\"digest\": \"0x%016llx\"}\n",
            core::runModeName(kLanes[l]),
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(lane.runs), ns * 1e-9,
            static_cast<unsigned long long>(lane.counted),
            static_cast<unsigned long long>(lane.prerun),
            lane.counted ? ns / static_cast<double>(lane.counted) : 0.0,
            executed > 0 ? ns / executed : 0.0,
            static_cast<unsigned long long>(lane.digest));
    }
    std::fflush(stdout);
    return 0;
}
