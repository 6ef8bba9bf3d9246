/**
 * @file
 * The determinism wall for the streaming schedule-while-recording
 * pipeline: runWorkloadStreaming() must be *bit-identical* to the
 * two-phase path — same merged traceDigest(), same ScheduleResult in
 * every field (makespan, per-op start/finish, per-resource usage,
 * kindBusy, gpuCtxSwitches) — across user counts, runtimes, recording
 * thread counts, and two-phase scheduler engines, at any shard queue
 * capacity. Also pins repeat stability under real thread
 * interleavings and the lowest-user-index error contract with a
 * draining queue.
 */

#include <gtest/gtest.h>

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

    // The streaming run (default engine) must match the two-phase
    // path under *every* engine the latter can score with (they are
    // all bit-identical to each other; the wall closes the triangle).
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

}  // namespace
}  // namespace hix::workloads
