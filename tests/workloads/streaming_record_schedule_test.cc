/**
 * @file
 * The determinism wall for the streaming schedule-while-recording
 * pipeline: runWorkloadStreaming() must be *bit-identical* to the
 * two-phase path — same merged traceDigest(), same ScheduleResult in
 * every field (makespan, per-op start/finish, per-resource usage,
 * kindBusy, gpuCtxSwitches) — across user counts, runtimes, recording
 * thread counts, and two-phase scheduler engines, at any shard queue
 * capacity. Also pins repeat stability under real thread
 * interleavings, the lowest-user-index error contract with a draining
 * queue, and the intake/join work counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/trace.h"
#include "workloads/runner.h"

namespace hix::workloads
{
namespace
{

RunConfig
makeConfig(bool use_hix, int users, int record_threads, bool streaming)
{
    RunConfig config;
    config.factory = [] { return makeRodinia("NN"); };
    config.users = users;
    config.useHix = use_hix;
    // record_threads: 0 = auto pool (min(users, hardware)), 1 = feed
    // every shard inline on the calling thread, else the forced width
    // of the queue path — the consumer and reorder buffer must behave
    // identically at every width.
    config.recordThreads = record_threads;
    config.keepTrace = true;
    config.streaming = streaming;
    return config;
}

void
expectScheduleEqual(const sim::ScheduleResult &got,
                    const sim::ScheduleResult &want)
{
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.gpuCtxSwitches, want.gpuCtxSwitches);
    ASSERT_EQ(got.start.size(), want.start.size());
    ASSERT_EQ(got.finish.size(), want.finish.size());
    for (std::size_t i = 0; i < want.start.size(); ++i) {
        ASSERT_EQ(got.start[i], want.start[i]) << "op " << i;
        ASSERT_EQ(got.finish[i], want.finish[i]) << "op " << i;
    }
    ASSERT_EQ(got.usage.size(), want.usage.size());
    for (const auto &[res, use] : want.usage) {
        const auto it = got.usage.find(res);
        ASSERT_NE(it, got.usage.end()) << res.toString();
        EXPECT_EQ(it->second.busy, use.busy) << res.toString();
        EXPECT_EQ(it->second.lastFree, use.lastFree) << res.toString();
        EXPECT_EQ(it->second.ops, use.ops) << res.toString();
    }
    ASSERT_EQ(got.kindBusy.size(), want.kindBusy.size());
    for (const auto &[kind, busy] : want.kindBusy) {
        const auto it = got.kindBusy.find(kind);
        ASSERT_NE(it, got.kindBusy.end());
        EXPECT_EQ(it->second, busy)
            << sim::opKindName(kind);
    }
}

class StreamingWallTest
    : public ::testing::TestWithParam<std::tuple<bool, int, int>>
{
};

TEST_P(StreamingWallTest, StreamingIsBitIdenticalToTwoPhase)
{
    const auto [use_hix, users, record_threads] = GetParam();

    auto streaming = runWorkload(
        makeConfig(use_hix, users, record_threads, /*streaming=*/true));
    ASSERT_TRUE(streaming.isOk()) << streaming.status().message();
    ASSERT_GT(streaming->trace->size(), 0u);

    // The streaming front-end must match the two-phase path under
    // *every* engine the latter can score with (they are all
    // bit-identical to each other; the wall closes the triangle).
    for (auto engine : {sim::SchedulerEngine::Fast,
                        sim::SchedulerEngine::Reference}) {
        RunConfig two_phase_config =
            makeConfig(use_hix, users, record_threads,
                       /*streaming=*/false);
        two_phase_config.schedulerEngine = engine;
        auto two_phase = runWorkload(two_phase_config);
        ASSERT_TRUE(two_phase.isOk()) << two_phase.status().message();

        EXPECT_EQ(sim::traceDigest(*streaming->trace),
                  sim::traceDigest(*two_phase->trace));
        EXPECT_EQ(streaming->ticks, two_phase->ticks);
        EXPECT_EQ(streaming->gpuCtxSwitches, two_phase->gpuCtxSwitches);
        EXPECT_EQ(streaming->tlbHits, two_phase->tlbHits);
        EXPECT_EQ(streaming->tlbMisses, two_phase->tlbMisses);
        EXPECT_EQ(streaming->iotlbHits, two_phase->iotlbHits);
        expectScheduleEqual(streaming->schedule, two_phase->schedule);
    }

    // Work-counter invariants: every shard was accepted, and every op
    // was scheduled exactly once — either a surviving intake result or
    // the final join, never both, never neither.
    const auto &st = streaming->streamStats;
    EXPECT_EQ(st.shards, static_cast<std::uint64_t>(users));
    EXPECT_EQ(st.reusedOps + st.joinOps, streaming->trace->size());
    EXPECT_GE(st.earlyComps, st.reusedComps);
}

TEST_P(StreamingWallTest, StreamingIsStableAcrossRepeats)
{
    // Shard completion order differs run to run (real thread timing);
    // the reorder buffer must erase it completely.
    const auto [use_hix, users, record_threads] = GetParam();
    const RunConfig config =
        makeConfig(use_hix, users, record_threads, /*streaming=*/true);
    auto first = runWorkload(config);
    auto second = runWorkload(config);
    ASSERT_TRUE(first.isOk()) << first.status().message();
    ASSERT_TRUE(second.isOk()) << second.status().message();
    EXPECT_EQ(sim::traceDigest(*first->trace),
              sim::traceDigest(*second->trace));
    EXPECT_EQ(first->ticks, second->ticks);
    expectScheduleEqual(first->schedule, second->schedule);
}

INSTANTIATE_TEST_SUITE_P(
    UsersByRuntimeByThreads, StreamingWallTest,
    ::testing::Combine(::testing::Bool(),  // useHix
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(1, 2, 0)),  // record threads
    [](const auto &info) {
        const int threads = std::get<2>(info.param);
        return std::string(std::get<0>(info.param) ? "hix" : "gdev") +
               "_users" + std::to_string(std::get<1>(info.param)) +
               (threads == 0 ? "_auto"
                             : "_rt" + std::to_string(threads));
    });

TEST(StreamingQueueTest, CapacityOneIsBitIdentical)
{
    // The smallest legal queue maximizes producer blocking; results
    // must not notice. Also pins the high-water-mark plumbing: a
    // capacity-1 queue can never report a deeper high-water mark.
    RunConfig reference = makeConfig(/*use_hix=*/true, /*users=*/8,
                                     /*record_threads=*/8,
                                     /*streaming=*/false);
    auto two_phase = runWorkload(reference);
    ASSERT_TRUE(two_phase.isOk()) << two_phase.status().message();

    RunConfig config = makeConfig(/*use_hix=*/true, /*users=*/8,
                                  /*record_threads=*/8,
                                  /*streaming=*/true);
    config.streamingQueueCap = 1;
    auto streaming = runWorkload(config);
    ASSERT_TRUE(streaming.isOk()) << streaming.status().message();
    EXPECT_EQ(sim::traceDigest(*streaming->trace),
              sim::traceDigest(*two_phase->trace));
    expectScheduleEqual(streaming->schedule, two_phase->schedule);
    EXPECT_LE(streaming->streamQueueDepthMax, 1u);
}

TEST(StreamingQueueTest, SerialModeFeedsInlineWithoutAQueue)
{
    RunConfig config = makeConfig(/*use_hix=*/false, /*users=*/4,
                                  /*record_threads=*/0,
                                  /*streaming=*/true);
    config.recordThreads = 1;
    auto streaming = runWorkload(config);
    ASSERT_TRUE(streaming.isOk()) << streaming.status().message();
    EXPECT_EQ(streaming->streamQueueDepthMax, 0u);

    auto two_phase =
        runWorkload(makeConfig(/*use_hix=*/false, /*users=*/4,
                               /*record_threads=*/0,
                               /*streaming=*/false));
    ASSERT_TRUE(two_phase.isOk()) << two_phase.status().message();
    EXPECT_EQ(sim::traceDigest(*streaming->trace),
              sim::traceDigest(*two_phase->trace));
    expectScheduleEqual(streaming->schedule, two_phase->schedule);
}

/** Fails in run() for selected users; succeeds (doing nothing) for
 * the rest. */
class FailingWorkload : public Workload
{
  public:
    FailingWorkload(int user, bool fail)
        : Workload("failing"), user_(user), fail_(fail)
    {
    }
    std::uint64_t timingScale() const override { return 1; }
    TransferSpec nominalTransfers() const override { return {}; }
    void registerKernels(gpu::GpuDevice &) override {}
    Status
    run(GpuApi &) override
    {
        if (fail_)
            return errInternal("workload failed for user " +
                               std::to_string(user_));
        return Status::ok();
    }

  private:
    int user_;
    bool fail_;
};

TEST(StreamingErrorTest, LowestUserIndexErrorWinsAndQueueDrains)
{
    // Mid-stream recording failure: user 0 succeeds, users 1..7 fail.
    // The streaming consumer must report user 1's error — the same
    // deterministic choice the two-phase path makes — while still
    // draining every later completion so no producer blocks on a full
    // queue (capacity 1 with one thread per user is the worst case;
    // a stuck producer would hang the test).
    for (int cap : {1, 0}) {
        int next_user = 0;
        RunConfig config;
        config.factory = [&next_user] {
            const int user = next_user++;
            return std::unique_ptr<Workload>(
                new FailingWorkload(user, user >= 1));
        };
        config.users = 8;
        config.useHix = false;
        config.streaming = true;
        config.recordThreads = 8;
        config.streamingQueueCap = cap;
        auto outcome = runWorkload(config);
        ASSERT_FALSE(outcome.isOk());
        EXPECT_NE(outcome.status().message().find("user 1"),
                  std::string::npos)
            << outcome.status().message();
    }
}

TEST(StreamingErrorTest, SerialStreamingKeepsTheSameErrorContract)
{
    int next_user = 0;
    RunConfig config;
    config.factory = [&next_user] {
        const int user = next_user++;
        return std::unique_ptr<Workload>(
            new FailingWorkload(user, user >= 2));
    };
    config.users = 4;
    config.useHix = false;
    config.streaming = true;
    config.recordThreads = 1;
    auto outcome = runWorkload(config);
    ASSERT_FALSE(outcome.isOk());
    EXPECT_NE(outcome.status().message().find("user 2"),
              std::string::npos)
        << outcome.status().message();
}

TEST(StreamingStatsTest, SingleUserSchedulesEverythingAtIntakeOrJoin)
{
    // One user, Fermi preset: the whole trace is one resource-connected
    // component containing the shared GPU/DMA resources, so nothing is
    // invalidated by later shards — the intake result must survive and
    // the join must reuse it wholesale.
    auto outcome = runWorkload(makeConfig(/*use_hix=*/true, /*users=*/1,
                                          /*record_threads=*/0,
                                          /*streaming=*/true));
    ASSERT_TRUE(outcome.isOk()) << outcome.status().message();
    const auto &st = outcome->streamStats;
    EXPECT_EQ(st.shards, 1u);
    EXPECT_EQ(st.joinOps, 0u);
    EXPECT_EQ(st.reusedOps, outcome->trace->size());
    EXPECT_EQ(st.reusedComps, st.earlyComps);
}

TEST(StreamingStatsTest, SharedResourcesForceTheJoinToReschedule)
{
    // Multi-user on the Fermi preset: every user's shard touches the
    // global DMA engines and the single compute engine, so intake
    // results are all invalidated and the join rescores everything —
    // joinOps is pinned at the full trace size. This is the regime
    // where the streaming win is pipelining, not result reuse.
    for (bool use_hix : {false, true}) {
        auto outcome = runWorkload(makeConfig(use_hix, /*users=*/4,
                                              /*record_threads=*/2,
                                              /*streaming=*/true));
        ASSERT_TRUE(outcome.isOk()) << outcome.status().message();
        const auto &st = outcome->streamStats;
        EXPECT_EQ(st.shards, 4u);
        EXPECT_EQ(st.joinOps, outcome->trace->size());
        EXPECT_EQ(st.reusedOps, 0u);
    }
}

/**
 * The Volta wall: with every per-device engine bank per-context
 * (compute queues, DMA channels, enclave lanes all >= the user
 * count), each user shard's resource-connected components touch only
 * that shard's resources, so the streaming join must reuse every
 * intake result wholesale — joinOps == 0 at any user count — while
 * staying bit-identical to the two-phase path, cold-booted or forked.
 */
class VoltaStreamingWallTest
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
  protected:
    RunConfig
    makeVoltaConfig(bool use_hix, int users, bool streaming, bool fork)
    {
        RunConfig config =
            makeConfig(use_hix, users, /*record_threads=*/0, streaming);
        // The true Volta preset is 8 queues/channels; 16 users need a
        // 16-wide config for all sessions to stay channel-private
        // (pigeonhole). Widths are powers of two.
        const auto width =
            static_cast<std::uint32_t>(std::max(8, users));
        config.machine.timing.gpuConcurrentContexts = width;
        config.machine.timing.gpuDmaChannels = width;
        config.machine.timing.gpuEnclaveLanes = width;
        config.forkSessions = fork;
        return config;
    }
};

TEST_P(VoltaStreamingWallTest, JoinFreeAndBitIdenticalToTwoPhase)
{
    const auto [use_hix, users] = GetParam();

    auto two_phase = runWorkload(makeVoltaConfig(
        use_hix, users, /*streaming=*/false, /*fork=*/false));
    ASSERT_TRUE(two_phase.isOk()) << two_phase.status().message();
    ASSERT_GT(two_phase->trace->size(), 0u);

    for (bool fork : {false, true}) {
        auto streaming = runWorkload(makeVoltaConfig(
            use_hix, users, /*streaming=*/true, fork));
        ASSERT_TRUE(streaming.isOk()) << streaming.status().message();

        EXPECT_EQ(sim::traceDigest(*streaming->trace),
                  sim::traceDigest(*two_phase->trace));
        EXPECT_EQ(streaming->ticks, two_phase->ticks);
        expectScheduleEqual(streaming->schedule, two_phase->schedule);

        // The tentpole: shard-private engine channels keep every
        // intake result valid, so the join reschedules nothing.
        const auto &st = streaming->streamStats;
        EXPECT_EQ(st.shards, static_cast<std::uint64_t>(users));
        EXPECT_EQ(st.joinOps, 0u)
            << (fork ? "fork" : "cold") << " streaming rescheduled "
            << st.joinOps << " of " << streaming->trace->size()
            << " ops at the join";
        EXPECT_EQ(st.reusedOps, streaming->trace->size());
    }

    // Fork-mode two-phase must also match the cold two-phase run.
    auto forked = runWorkload(makeVoltaConfig(
        use_hix, users, /*streaming=*/false, /*fork=*/true));
    ASSERT_TRUE(forked.isOk()) << forked.status().message();
    EXPECT_EQ(sim::traceDigest(*forked->trace),
              sim::traceDigest(*two_phase->trace));
    EXPECT_EQ(forked->ticks, two_phase->ticks);
    expectScheduleEqual(forked->schedule, two_phase->schedule);
}

INSTANTIATE_TEST_SUITE_P(
    UsersByRuntime, VoltaStreamingWallTest,
    ::testing::Combine(::testing::Bool(),  // useHix
                       ::testing::Values(1, 2, 4, 8, 16)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "hix" : "gdev") +
               "_users" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hix::workloads
