/**
 * @file
 * Timing-scheduler benchmark: replays large op-DAG traces through the
 * O(n log n) production engine and the O(n^2)-ish reference engine,
 * reporting simulated makespan (which must match bit for bit across
 * both engines) and host wall-clock per engine.
 *
 * Shapes:
 *  - synthetic multi-user pipeline chains (the 1M-op headline preset:
 *    16 users x 128 outstanding chunk lanes of encrypt -> DMA ->
 *    kernel, the op shape the HIX chunked data path records for a
 *    large pipelined transfer);
 *  - real recorded Rodinia traces, 16 users merged across apps via
 *    Trace::append.
 *
 * Writes BENCH_sched.json (see bench_json.h). `--preset=small` keeps
 * the synthetic trace CI-sized but still emits the full 1M-op
 * engine=fast row (one run, no reference race) so CI can pin its
 * makespan; the default full preset runs the 1M-op acceptance
 * configuration end to end.
 */

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "sim/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

using namespace hix;
using namespace hix::workloads;

namespace
{

/**
 * Multi-user chunked-pipeline DAG: every user owns a CPU lane set and
 * a GPU context; chunk c of lane l is encrypt (user CPU) -> transfer
 * (shared DMA) -> kernel (shared GPU compute, user's context), with
 * each stage chained to the lane's previous chunk. This reproduces
 * the wide ready-sets a merged multi-user HIX trace exposes, which is
 * exactly where the reference engine's linear ready-scan hurts.
 */
sim::Trace
makeSyntheticPipeline(int users, int lanes, std::size_t total_ops)
{
    sim::Trace trace;
    trace.reserve(total_ops);
    Rng rng(0x5ced);

    const sim::ResourceId dma{sim::ResUnit::DmaHtoD, 0};
    const sim::ResourceId gpu{sim::ResUnit::GpuCompute, 0};

    // tails[user][lane]: last op of that lane's chain.
    std::vector<std::vector<sim::OpId>> tails(
        users,
        std::vector<sim::OpId>(lanes, sim::InvalidOpId));

    std::size_t added = 0;
    for (std::size_t i = 0; added + 3 <= total_ops; ++i) {
        const int u = static_cast<int>(i % users);
        const int l = static_cast<int>((i / users) % lanes);
        const sim::ResourceId cpu{
            sim::ResUnit::UserCpu, static_cast<std::uint16_t>(u)};
        const auto ctx = static_cast<GpuContextId>(u);

        const sim::OpId tail = tails[u][l];
        const sim::OpId enc =
            trace.add(cpu, 50 + rng.nextBelow(200),
                      std::span<const sim::OpId>(
                          &tail, tail != sim::InvalidOpId ? 1 : 0),
                      sim::OpKind::CryptoCpu, 4096, "enc");
        const sim::OpId xfer =
            trace.add(dma, 20 + rng.nextBelow(80), {enc},
                      sim::OpKind::Transfer, 4096, "xfer");
        tails[u][l] =
            trace.add(gpu, 100 + rng.nextBelow(400), {xfer},
                      sim::OpKind::Compute, 0, "kernel",
                      ctx);
        added += 3;
    }
    return trace;
}

/** Record real Rodinia traces and merge them into one 16-user DAG. */
sim::Trace
makeMergedRodinia(int users_per_app,
                  sim::SchedulerConfig *cfg_out)
{
    sim::Trace merged;
    for (const char *app : {"BP", "BFS", "NW", "SRAD"}) {
        RunConfig config;
        config.factory = [app] { return makeRodinia(app); };
        config.users = users_per_app;
        config.useHix = true;
        config.keepTrace = true;
        auto outcome = runWorkload(config);
        if (!outcome.isOk() || !outcome->trace) {
            std::fprintf(stderr, "rodinia %s failed: %s\n", app,
                         outcome.status().toString().c_str());
            continue;
        }
        merged.append(*outcome->trace);
        if (cfg_out)
            *cfg_out = outcome->schedulerConfig;
    }
    return merged;
}

/** Full-field ScheduleResult comparison (the bit-identity contract). */
bool
identicalResults(const sim::ScheduleResult &a,
                 const sim::ScheduleResult &b)
{
    bool ok = a.start == b.start && a.finish == b.finish &&
              a.makespan == b.makespan &&
              a.gpuCtxSwitches == b.gpuCtxSwitches &&
              a.kindBusy == b.kindBusy &&
              a.usage.size() == b.usage.size();
    if (!ok)
        return false;
    for (const auto &[rid, use] : a.usage) {
        auto it = b.usage.find(rid);
        if (it == b.usage.end() || it->second.busy != use.busy ||
            it->second.lastFree != use.lastFree ||
            it->second.ops != use.ops)
            return false;
    }
    return true;
}

struct EngineTimes
{
    double fastMs = 0.0;
    double refMs = 0.0;
    Tick makespan = 0;
    bool identical = false;
};

/** Time both engines on one trace; the fast engine takes the best of
 *  @p fast_reps runs. */
EngineTimes
raceEngines(const sim::Trace &trace, const sim::SchedulerConfig &cfg,
            int fast_reps = 3)
{
    EngineTimes times;

    double best = -1.0;
    sim::ScheduleResult fast;
    for (int rep = 0; rep < fast_reps; ++rep) {
        bench::HostTimer timer;
        fast = sim::schedule(trace, cfg);
        const double ms = timer.ms();
        if (best < 0.0 || ms < best)
            best = ms;
    }
    times.fastMs = best;

    bench::HostTimer timer;
    const sim::ScheduleResult ref = sim::scheduleReference(trace, cfg);
    times.refMs = timer.ms();

    times.makespan = fast.makespan;
    times.identical = identicalResults(fast, ref);
    return times;
}

int
runBench(bool small_preset)
{
    bench::BenchJson json("sched");
    bool all_identical = true;

    std::printf("Scheduler engine race (host wall-clock)\n\n");
    std::printf("%-52s %9s %12s %12s %9s\n", "trace", "ops",
                "fast (ms)", "reference", "speedup");

    auto report = [&](const std::string &name,
                      const sim::Trace &trace,
                      const sim::SchedulerConfig &cfg,
                      int fast_reps = 3) {
        const EngineTimes times = raceEngines(trace, cfg, fast_reps);
        all_identical = all_identical && times.identical;
        const double speedup =
            times.fastMs > 0.0 ? times.refMs / times.fastMs : 0.0;
        std::printf("%-52s %9zu %12.1f %12.1f %8.1fx%s\n",
                    name.c_str(), trace.size(), times.fastMs,
                    times.refMs, speedup,
                    times.identical ? "" : "  MISMATCH");
        json.add(name + " engine=fast", times.makespan, times.fastMs)
            .metric("ops", static_cast<double>(trace.size()))
            .metric("speedup_vs_reference", speedup);
        json.add(name + " engine=reference", times.makespan,
                 times.refMs)
            .metric("ops", static_cast<double>(trace.size()));
        return speedup;
    };

    sim::SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 50;

    // Headline synthetic preset (acceptance: >= 10x vs reference at
    // 1M ops); the fast engine takes the best of 9 runs so the ratio
    // survives noisy shared hosts.
    const std::size_t headline_ops =
        small_preset ? 60'000 : 1'000'000;
    const int lanes = small_preset ? 32 : 128;
    const sim::Trace headline =
        makeSyntheticPipeline(16, lanes, headline_ops);
    const double headline_speedup =
        report("synthetic_pipeline users=16 lanes=" +
                   std::to_string(lanes),
               headline, cfg, 9);

    if (small_preset) {
        // CI pin: the full 1M-op trace through the fast engine only
        // (the reference race would dominate CI time). Its makespan
        // must equal the recorded full-preset value.
        const sim::Trace full =
            makeSyntheticPipeline(16, 128, 1'000'000);
        bench::HostTimer timer;
        const sim::ScheduleResult fast = sim::schedule(full, cfg);
        const double ms = timer.ms();
        std::printf("%-52s %9zu %12.1f %12s\n",
                    "synthetic_pipeline users=16 lanes=128 (pin)",
                    full.size(), ms, "-");
        json.add("synthetic_pipeline users=16 lanes=128 engine=fast",
                 fast.makespan, ms)
            .metric("ops", static_cast<double>(full.size()));
    } else {
        const sim::Trace narrow =
            makeSyntheticPipeline(4, 4, 250'000);
        report("synthetic_pipeline users=4 lanes=4", narrow, cfg);
    }

    // Real recorded shapes: 16 users across four Rodinia apps.
    sim::SchedulerConfig rodinia_cfg;
    const sim::Trace rodinia =
        makeMergedRodinia(small_preset ? 4 : 16, &rodinia_cfg);
    if (rodinia.size() > 0)
        report(small_preset
                   ? "rodinia_merged users=4x4apps hix"
                   : "rodinia_merged users=16x4apps hix",
               rodinia, rodinia_cfg);

    std::printf("\nheadline speedup: %.1fx (target >= 10x at 1M "
                "ops)\n",
                headline_speedup);
    const bool wrote = json.write();

    if (!all_identical) {
        std::fprintf(stderr,
                     "FAIL: engines disagree on a trace\n");
        return 1;
    }
    return wrote ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool small_preset = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--preset=small") == 0 ||
            std::strcmp(arg, "small") == 0) {
            small_preset = true;
        } else {
            std::fprintf(stderr, "usage: %s [--preset=small]\n",
                         argv[0]);
            return 2;
        }
    }
    return runBench(small_preset);
}
