/**
 * @file
 * Golden-equivalence suite for the two scheduler engines: every real
 * recorded trace — Rodinia applications, the HIX chunked crypto
 * pipeline, multi-user runs, and multi-trace merges — and every
 * synthetic stress shape (multi-user pipelines across context-switch
 * costs, disjoint per-user chains, a wide uniform-duration trace, a
 * single-resource multi-context trace, synthetic shards merged in
 * session order, empty and one-op traces, durations past 32 bits)
 * must produce a bit-identical ScheduleResult from the O(n log n)
 * engine and the O(n^2) reference engine. CI gates on this suite by
 * name (ctest -R SchedulerGolden); do not rename it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace hix::workloads
{
namespace
{

/** Both engines, field by field, bit for bit. */
void
expectEngineEquivalence(const sim::Trace &trace,
                        const sim::SchedulerConfig &cfg)
{
    const sim::ScheduleResult fast = sim::schedule(trace, cfg);
    const sim::ScheduleResult ref = sim::scheduleReference(trace, cfg);

    EXPECT_EQ(fast.makespan, ref.makespan);
    EXPECT_EQ(fast.gpuCtxSwitches, ref.gpuCtxSwitches);
    EXPECT_EQ(fast.start, ref.start);
    EXPECT_EQ(fast.finish, ref.finish);
    EXPECT_EQ(fast.kindBusy, ref.kindBusy);

    ASSERT_EQ(fast.usage.size(), ref.usage.size());
    for (const auto &[res, use] : ref.usage) {
        auto it = fast.usage.find(res);
        ASSERT_NE(it, fast.usage.end()) << res.toString();
        EXPECT_EQ(it->second.busy, use.busy) << res.toString();
        EXPECT_EQ(it->second.lastFree, use.lastFree)
            << res.toString();
        EXPECT_EQ(it->second.ops, use.ops) << res.toString();
    }
}

/** Run a workload with trace capture and check both engines on it. */
RunOutcome
runAndCheck(RunConfig config)
{
    config.keepTrace = true;
    auto outcome = runWorkload(config);
    EXPECT_TRUE(outcome.isOk()) << outcome.status().toString();
    if (!outcome.isOk())
        return {};
    EXPECT_TRUE(outcome->trace != nullptr);
    EXPECT_GT(outcome->trace->size(), 0u);
    expectEngineEquivalence(*outcome->trace,
                            outcome->schedulerConfig);
    // The kept trace must be the one the run was scored with.
    const auto replay =
        sim::schedule(*outcome->trace, outcome->schedulerConfig);
    EXPECT_EQ(replay.makespan, outcome->ticks);
    return std::move(*outcome);
}

RunConfig
rodiniaConfig(const std::string &app, int users, bool use_hix)
{
    RunConfig config;
    config.factory = [app] { return makeRodinia(app); };
    config.users = users;
    config.useHix = use_hix;
    return config;
}

TEST(SchedulerGoldenTest, RodiniaBaselineSingleUser)
{
    for (const char *app : {"BP", "BFS", "NW", "SRAD"})
        runAndCheck(rodiniaConfig(app, 1, false));
}

TEST(SchedulerGoldenTest, RodiniaHixPipelineSingleUser)
{
    // The HIX secure data path: chunked encrypt/transfer/decrypt
    // pipeline traces with GPU crypto kernels.
    for (const char *app : {"BP", "GS", "HS", "NN"})
        runAndCheck(rodiniaConfig(app, 1, true));
}

TEST(SchedulerGoldenTest, RodiniaBaselineMpsMultiUser)
{
    // Pre-Volta MPS: users share one merged GPU context.
    runAndCheck(rodiniaConfig("BFS", 2, false));
    runAndCheck(rodiniaConfig("PF", 4, false));
    runAndCheck(rodiniaConfig("NN", 8, false));
    runAndCheck(rodiniaConfig("NN", 16, false));
}

TEST(SchedulerGoldenTest, RodiniaHixMultiUserContextSwitches)
{
    // One isolated GPU context per enclave user: these traces carry
    // real context-switch pressure on the compute engine.
    runAndCheck(rodiniaConfig("BP", 2, true));
    auto four = runAndCheck(rodiniaConfig("LUD", 4, true));
    EXPECT_GT(four.gpuCtxSwitches, 0u);
    runAndCheck(rodiniaConfig("NN", 8, true));
    runAndCheck(rodiniaConfig("NN", 16, true));
}

TEST(SchedulerGoldenTest, HixDataPathAblations)
{
    // Two-copy, unpipelined, and PIO ablations exercise distinct
    // recorded op shapes.
    RunConfig two_copy = rodiniaConfig("BP", 1, true);
    two_copy.singleCopy = false;
    runAndCheck(two_copy);

    RunConfig unpipelined = rodiniaConfig("BP", 1, true);
    unpipelined.pipeline = false;
    runAndCheck(unpipelined);

    RunConfig pio = rodiniaConfig("BP", 1, true);
    pio.usePio = true;
    runAndCheck(pio);
}

TEST(SchedulerGoldenTest, MatrixWorkloads)
{
    RunConfig config;
    config.factory = [] { return makeMatrixMul(64); };
    config.users = 1;
    config.useHix = true;
    runAndCheck(config);

    config.factory = [] { return makeMatrixAdd(128); };
    config.useHix = false;
    runAndCheck(config);
}

/**
 * A synthetic per-user shard: a private CPU always, a second private
 * resource sometimes, and, with probability @p share_pct, ops on the
 * globally shared DMA and compute engines that entangle it with every
 * other shard (the Fermi regime). Compute ops carry a shard-local GPU
 * context remapped to the canonical 1 + user at append, as the
 * multi-user runner does. Up to 4 deps per op, so some lists spill
 * past Op::InlineDeps.
 */
sim::Trace
randomShard(Rng &rng, int user, std::size_t n_ops, unsigned share_pct,
            sim::Trace::AppendRemap &remap)
{
    const GpuContextId local_ctx = 0x10000 + GpuContextId(user);
    const sim::ResourceId priv_cpu{sim::ResUnit::UserCpu,
                                   static_cast<std::uint16_t>(user)};
    const sim::ResourceId priv_alt{
        sim::ResUnit::UserCpu, static_cast<std::uint16_t>(100 + user)};
    const sim::ResourceId shared_dma{sim::ResUnit::DmaHtoD, 0};
    const sim::ResourceId shared_gpu{sim::ResUnit::GpuCompute, 0};

    sim::Trace shard;
    remap.gpuCtx = {{local_ctx, 1 + GpuContextId(user)}};
    for (std::size_t i = 0; i < n_ops; ++i) {
        sim::ResourceId res = priv_cpu;
        GpuContextId ctx = sim::NoGpuContext;
        const std::uint64_t roll = rng.nextBelow(100);
        if (roll < share_pct) {
            res = rng.nextBelow(2) == 0 ? shared_dma : shared_gpu;
            if (res.unit == sim::ResUnit::GpuCompute)
                ctx = local_ctx;
        } else if (roll < share_pct + 20) {
            res = priv_alt;
        }
        std::vector<sim::OpId> deps;
        if (i > 0) {
            const std::size_t want = rng.nextBelow(5);
            for (std::size_t d = 0; d < want; ++d)
                deps.push_back(static_cast<sim::OpId>(rng.nextBelow(i)));
        }
        shard.add(res, rng.nextBelow(500), deps,
                  static_cast<sim::OpKind>(rng.nextBelow(sim::OpKindCount)),
                  rng.nextBelow(1 << 16), "", ctx);
    }
    return shard;
}

TEST(SchedulerGoldenTest, MergedMultiUserTraces)
{
    // Merge independently recorded runs into one trace (the shape the
    // scheduler bench uses for its 16-user preset): append() remaps
    // op ids, spilled deps, and interned labels across traces.
    auto base = runAndCheck(rodiniaConfig("BP", 2, false));
    auto secure = runAndCheck(rodiniaConfig("BFS", 2, true));
    ASSERT_TRUE(base.trace && secure.trace);

    sim::Trace merged;
    merged.append(*base.trace);
    merged.append(*secure.trace);
    merged.append(*base.trace);
    ASSERT_EQ(merged.size(), 2 * base.trace->size() +
                                 secure.trace->size());
    expectEngineEquivalence(merged, base.schedulerConfig);

    // Synthetic shards appended in session order, across sharing
    // regimes from fully private to heavily entangled; shard 2 is
    // empty and must not perturb the ids of later shards.
    Rng rng(0x57bea301);
    for (unsigned share_pct : {0u, 15u, 30u, 45u}) {
        sim::Trace shards;
        for (int u = 0; u < 6; ++u) {
            sim::Trace::AppendRemap remap;
            const std::size_t n_ops = u == 2 ? 0 : 1 + rng.nextBelow(80);
            const sim::Trace shard =
                randomShard(rng, u, n_ops, share_pct, remap);
            shards.append(shard, remap);
        }
        for (Tick cost : {Tick(0), Tick(37)}) {
            sim::SchedulerConfig cfg;
            cfg.gpuCtxSwitchTicks = cost;
            expectEngineEquivalence(shards, cfg);
        }
    }
}

/** The bench's multi-user pipeline shape, CI-sized: per user and
 *  lane, a CPU encrypt feeds a shared DMA copy feeding a kernel on
 *  the user's own GPU context. */
sim::Trace
makePipeline(int users, int lanes, std::size_t total_ops)
{
    sim::Trace trace;
    trace.reserve(total_ops);
    Rng rng(0x5ced);
    const sim::ResourceId dma{sim::ResUnit::DmaHtoD, 0};
    const sim::ResourceId gpu{sim::ResUnit::GpuCompute, 0};
    std::vector<std::vector<sim::OpId>> tails(
        users, std::vector<sim::OpId>(lanes, sim::InvalidOpId));
    std::size_t added = 0;
    for (std::size_t i = 0; added + 3 <= total_ops; ++i) {
        const int u = static_cast<int>(i % users);
        const int l = static_cast<int>((i / users) % lanes);
        const sim::ResourceId cpu{sim::ResUnit::UserCpu,
                                  static_cast<std::uint16_t>(u)};
        const sim::OpId tail = tails[u][l];
        const sim::OpId enc = trace.add(
            cpu, 50 + rng.nextBelow(200),
            std::span<const sim::OpId>(
                &tail, tail != sim::InvalidOpId ? 1 : 0),
            sim::OpKind::CryptoCpu, 4096, "enc");
        const sim::OpId xfer =
            trace.add(dma, 20 + rng.nextBelow(80), {enc},
                      sim::OpKind::Transfer, 4096, "xfer");
        tails[u][l] = trace.add(
            gpu, 100 + rng.nextBelow(400), {xfer},
            sim::OpKind::Compute, 0, "kernel",
            static_cast<GpuContextId>(u));
        added += 3;
    }
    return trace;
}

TEST(SchedulerGoldenTest, SyntheticPipelineAcrossCtxCosts)
{
    const sim::Trace trace = makePipeline(8, 16, 30'000);
    for (Tick cost : {Tick(0), Tick(50), Tick(1000)}) {
        sim::SchedulerConfig cfg;
        cfg.gpuCtxSwitchTicks = cost;
        expectEngineEquivalence(trace, cfg);
    }
}

TEST(SchedulerGoldenTest, DisjointPerUserChains)
{
    // Users that never share a resource: six independent chains.
    sim::Trace trace;
    Rng rng(0xd15);
    const int users = 6;
    std::vector<sim::OpId> tails(users, sim::InvalidOpId);
    for (int round = 0; round < 500; ++round) {
        for (int u = 0; u < users; ++u) {
            const sim::ResourceId cpu{sim::ResUnit::UserCpu,
                                      static_cast<std::uint16_t>(u)};
            const sim::OpId tail = tails[u];
            tails[u] = trace.add(
                cpu, 10 + rng.nextBelow(90),
                std::span<const sim::OpId>(
                    &tail, tail != sim::InvalidOpId ? 1 : 0),
                sim::OpKind::Compute, 0, "w");
        }
    }
    sim::SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 50;
    expectEngineEquivalence(trace, cfg);
}

TEST(SchedulerGoldenTest, WideUniformDurationTrace)
{
    // 128 equally-loaded resources, every op feeding a neighbouring
    // resource with uniform durations: this maximises cross-resource
    // dispatch ties, stressing the (eff, resident, id) tie-break.
    // Resource 0 is the GPU compute engine with rotating contexts, so
    // residency and switch accounting are exercised too.
    sim::Trace trace;
    const int nres = 128;
    const std::size_t n = 25'600;
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>(i % nres);
        const sim::ResourceId res =
            r == 0 ? sim::ResourceId{sim::ResUnit::GpuCompute, 0}
                   : sim::ResourceId{sim::ResUnit::UserCpu,
                                     static_cast<std::uint16_t>(r)};
        std::vector<sim::OpId> deps;
        if (i >= static_cast<std::size_t>(nres))
            deps.push_back(static_cast<sim::OpId>(i - nres + 1));
        const GpuContextId ctx =
            r == 0 ? static_cast<GpuContextId>(1 + (i / nres) % 4)
                   : sim::NoGpuContext;
        trace.add(res, 100, deps, sim::OpKind::Compute, 0, "", ctx);
    }
    for (Tick cost : {Tick(0), Tick(50)}) {
        sim::SchedulerConfig cfg;
        cfg.gpuCtxSwitchTicks = cost;
        expectEngineEquivalence(trace, cfg);
    }
}

TEST(SchedulerGoldenTest, SingleResourceFiveContexts)
{
    // Degenerate single-resource trace: five contexts contend for one
    // compute engine, a third of the ops unchained.
    sim::Trace trace;
    Rng rng(0x1);
    sim::OpId tail = sim::InvalidOpId;
    const sim::ResourceId gpu{sim::ResUnit::GpuCompute, 0};
    for (int i = 0; i < 2'000; ++i) {
        const bool chained = (i % 3) != 0 && tail != sim::InvalidOpId;
        tail = trace.add(
            gpu, 1 + rng.nextBelow(50),
            std::span<const sim::OpId>(&tail, chained ? 1 : 0),
            sim::OpKind::Compute, 0, "",
            static_cast<GpuContextId>(i % 5));
    }
    sim::SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 25;
    expectEngineEquivalence(trace, cfg);
}

TEST(SchedulerGoldenTest, EmptyAndOneOpTraces)
{
    sim::Trace empty;
    const sim::ScheduleResult none = sim::schedule(empty);
    EXPECT_EQ(none.makespan, 0u);
    EXPECT_TRUE(none.start.empty());
    EXPECT_TRUE(none.finish.empty());
    expectEngineEquivalence(empty, {});

    sim::Trace one;
    one.add({sim::ResUnit::UserCpu, 0}, 7, {}, sim::OpKind::Control);
    expectEngineEquivalence(one, {});
    EXPECT_EQ(sim::schedule(one).makespan, 7u);

    // Durations past 32 bits: a one-op trace and a two-op chain.
    const Tick big = (Tick(1) << 32) + 1;
    sim::Trace one_big;
    one_big.add({sim::ResUnit::UserCpu, 0}, big, {},
                sim::OpKind::Compute);
    expectEngineEquivalence(one_big, {});
    EXPECT_EQ(sim::schedule(one_big).makespan, big);

    sim::Trace chain;
    const sim::OpId head =
        chain.add({sim::ResUnit::UserCpu, 0}, big, {},
                  sim::OpKind::Compute);
    chain.add({sim::ResUnit::GpuCompute, 0}, big, {head},
              sim::OpKind::Compute, 0, "", 1);
    expectEngineEquivalence(chain, {});
    EXPECT_EQ(sim::schedule(chain).makespan, 2 * big);
}

}  // namespace
}  // namespace hix::workloads
