/**
 * @file
 * GPU-pool service bench: an open-loop session stream (seeded
 * deterministic arrivals, Rodinia app mix) served by a multi-GPU
 * pool under each placement policy, on both runtimes. Reports
 * p50/p95/p99 session latency, per-device compute utilization, and
 * queue-depth maxima per policy.
 *
 * A second row group replays closed-batch 1-device pools and must
 * reproduce bench_multiuser's ticks bit-exactly (CI gates on it):
 * the pool runtime collapses to the plain runWorkload() path when
 * there is one device and no admission waits.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "svc/service.h"

using namespace hix;
using namespace hix::svc;

namespace
{

void
openLoopRow(bench::BenchJson &json, Policy policy, bool use_hix)
{
    ServiceConfig cfg;
    cfg.devices = 4;
    cfg.policy = policy;
    cfg.useHix = use_hix;
    cfg.seed = 0x5e55;
    cfg.sessions = 1000;
    cfg.meanInterarrivalTicks = 4'000'000;
    cfg.tableCap = 64;
    cfg.appMix = {"NN", "LUD", "BFS"};
    cfg.userPopulation = 64;

    const std::string config =
        std::string("policy=") + policyName(policy) +
        " runtime=" + (use_hix ? "hix" : "gdev") +
        " devices=4 sessions=1000";
    bench::HostTimer timer;
    auto out = runService(cfg);
    if (!out.isOk()) {
        std::printf("  !! %s failed: %s\n", config.c_str(),
                    out.status().message().c_str());
        return;
    }
    auto &row = json.add(config, out->pool.run.ticks, timer.ms());
    row.metric("p50", static_cast<double>(out->p50))
        .metric("p95", static_cast<double>(out->p95))
        .metric("p99", static_cast<double>(out->p99))
        .metric("admit_queue_depth_max",
                out->plan.admitQueueDepthMax);
    for (int d = 0; d < cfg.devices; ++d) {
        const std::string suffix = "_dev" + std::to_string(d);
        row.metric("util" + suffix, out->deviceUtil[d])
            .metric("sessions" + suffix,
                    out->plan.perDeviceSessions[d])
            .metric("queue_depth_max" + suffix,
                    out->plan.queueDepthMax[d]);
    }
    std::printf(
        "%-60s p50=%llu p95=%llu p99=%llu util=[%.2f %.2f %.2f %.2f]\n",
        config.c_str(), static_cast<unsigned long long>(out->p50),
        static_cast<unsigned long long>(out->p95),
        static_cast<unsigned long long>(out->p99),
        out->deviceUtil[0], out->deviceUtil[1], out->deviceUtil[2],
        out->deviceUtil[3]);
}

/** Open-loop pool on the Volta preset: per-context compute queues,
 * DMA channels, and enclave lanes (all 8-wide), so sessions sharing
 * one device spread across private slices of every engine bank. The
 * row reports per-channel DMA utilization from the pool schedule —
 * the knob's visible effect is transfer time spreading across the
 * channel bank instead of serializing on one copy engine. */
void
voltaRow(bench::BenchJson &json, Policy policy, bool use_hix)
{
    ServiceConfig cfg;
    cfg.devices = 4;
    cfg.policy = policy;
    cfg.useHix = use_hix;
    cfg.seed = 0x5e55;
    cfg.sessions = 1000;
    cfg.meanInterarrivalTicks = 4'000'000;
    cfg.tableCap = 64;
    cfg.appMix = {"NN", "LUD", "BFS"};
    cfg.userPopulation = 64;
    cfg.run.machine.timing.gpuConcurrentContexts = 8;
    cfg.run.machine.timing.gpuDmaChannels = 8;
    cfg.run.machine.timing.gpuEnclaveLanes = 8;

    const std::string config =
        std::string("volta policy=") + policyName(policy) +
        " runtime=" + (use_hix ? "hix" : "gdev") +
        " devices=4 sessions=1000";
    bench::HostTimer timer;
    auto out = runService(cfg);
    if (!out.isOk()) {
        std::printf("  !! %s failed: %s\n", config.c_str(),
                    out.status().message().c_str());
        return;
    }
    auto &row = json.add(config, out->pool.run.ticks, timer.ms());
    row.metric("p50", static_cast<double>(out->p50))
        .metric("p95", static_cast<double>(out->p95))
        .metric("p99", static_cast<double>(out->p99))
        .metric("admit_queue_depth_max",
                out->plan.admitQueueDepthMax);
    const auto channels = cfg.run.machine.timing.gpuDmaChannels;
    for (int d = 0; d < cfg.devices; ++d) {
        const std::string suffix = "_dev" + std::to_string(d);
        row.metric("util" + suffix, out->deviceUtil[d])
            .metric("sessions" + suffix,
                    out->plan.perDeviceSessions[d]);
        int busy_channels = 0;
        for (std::uint32_t c = 0; c < channels; ++c) {
            const std::size_t i = d * channels + c;
            const std::string ch =
                suffix + "_ch" + std::to_string(c);
            row.metric("dma_h2d_util" + ch, out->dmaHtoDUtil[i])
                .metric("dma_d2h_util" + ch, out->dmaDtoHUtil[i]);
            if (out->dmaHtoDUtil[i] > 0 || out->dmaDtoHUtil[i] > 0)
                ++busy_channels;
        }
        row.metric("dma_busy_channels" + suffix, busy_channels);
    }
    std::printf(
        "%-60s p50=%llu p95=%llu p99=%llu util=[%.2f %.2f %.2f %.2f]\n",
        config.c_str(), static_cast<unsigned long long>(out->p50),
        static_cast<unsigned long long>(out->p95),
        static_cast<unsigned long long>(out->p99),
        out->deviceUtil[0], out->deviceUtil[1], out->deviceUtil[2],
        out->deviceUtil[3]);
}

/** Closed-batch 1-device pool; ticks must equal the corresponding
 * BENCH_multiuser row (the CI perf-smoke gate compares them). */
void
gateRow(bench::BenchJson &json, const std::string &app, int users,
        bool use_hix)
{
    ServiceConfig cfg;
    cfg.devices = 1;
    cfg.policy = Policy::RoundRobin;
    cfg.useHix = use_hix;
    cfg.sessions = users;
    cfg.appMix = {app};

    const std::string config =
        "gate app=" + app + " users=" + std::to_string(users) +
        " runtime=" + (use_hix ? "hix" : "gdev");
    bench::HostTimer timer;
    auto out = runService(cfg);
    if (!out.isOk()) {
        std::printf("  !! %s failed: %s\n", config.c_str(),
                    out.status().message().c_str());
        return;
    }
    json.add(config, out->pool.run.ticks, timer.ms());
    std::printf("%-60s ticks=%llu\n", config.c_str(),
                static_cast<unsigned long long>(out->pool.run.ticks));
}

}  // namespace

int
main()
{
    bench::BenchJson json("service");
    for (bool use_hix : {false, true})
        for (Policy policy : {Policy::RoundRobin, Policy::LeastLoaded,
                              Policy::Affinity})
            openLoopRow(json, policy, use_hix);
    for (bool use_hix : {false, true})
        for (Policy policy : {Policy::RoundRobin, Policy::LeastLoaded,
                              Policy::Affinity})
            voltaRow(json, policy, use_hix);
    for (const char *app : {"NN", "BP"})
        for (int users : {2, 4})
            for (bool use_hix : {false, true})
                gateRow(json, app, users, use_hix);
    return json.write() ? 0 : 1;
}
