/**
 * @file
 * The Fork determinism wall for the RunConfig::forkSessions session
 * fast path: a run whose user shards fork a copy-on-write template
 * snapshot must be *bit-identical* to a run that cold-boots a private
 * machine per user — same merged trace digest, same ScheduleResult in
 * every field — at every user count, for both runtimes, on the Fermi
 * preset and on a Volta preset whose compute queues, DMA channels and
 * enclave lanes are all per-context.
 * Also pins the copy-on-write isolation properties the fast path
 * rests on: writes in one fork are invisible to its siblings and to
 * the snapshot, the snapshot outlives the machine it was taken of,
 * and a forked machine owns zero private pages until it writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "os/machine.h"
#include "sim/trace.h"
#include "workloads/runner.h"

namespace hix::workloads
{
namespace
{

/** One preset leg of the wall. gtest prints the value in each ctest
 *  name's GetParam() suffix, so the values are fixed: renumbering a
 *  leg would rename its tests. */
enum Leg
{
    TwoPhase = 0,  //!< Fermi preset
    Volta = 2,     //!< per-context engines
};

RunConfig
makeConfig(bool use_hix, int users, Leg leg, bool fork_sessions)
{
    RunConfig config;
    config.factory = [] { return makeRodinia("NN"); };
    config.users = users;
    config.useHix = use_hix;
    config.forkSessions = fork_sessions;
    if (leg == Volta) {
        // The true Volta preset is 8 queues/channels; 16 users need a
        // 16-wide config for every session to own its engines
        // (pigeonhole). Widths are powers of two.
        const auto width =
            static_cast<std::uint32_t>(std::max(8, users));
        config.machine.timing.gpuConcurrentContexts = width;
        config.machine.timing.gpuDmaChannels = width;
        config.machine.timing.gpuEnclaveLanes = width;
    }
    // Force one recording thread per user (the auto pool sizes to the
    // host and may collapse to one worker on small CI machines): the
    // wall must exercise — and TSan must observe — concurrent forks
    // off the shared template snapshot regardless of where it runs.
    config.recordThreads = users;
    config.keepTrace = true;
    return config;
}

struct Recording
{
    std::uint64_t digest = 0;
    Tick ticks = 0;
    std::size_t ops = 0;
    sim::ScheduleResult schedule;
    double bootMs = 0;
    std::uint64_t residentPages = 0;
};

Recording
record(bool use_hix, int users, Leg leg, bool fork_sessions)
{
    auto outcome = runWorkload(
        makeConfig(use_hix, users, leg, fork_sessions));
    EXPECT_TRUE(outcome.isOk()) << outcome.status().message();
    Recording r;
    r.digest = sim::traceDigest(*outcome->trace);
    r.ticks = outcome->ticks;
    r.ops = outcome->trace->size();
    r.schedule = std::move(outcome->schedule);
    r.bootMs = outcome->hostBootMs;
    r.residentPages = outcome->residentPages;
    return r;
}

/** Every ScheduleResult field, bit for bit. */
void
expectScheduleEqual(const sim::ScheduleResult &got,
                    const sim::ScheduleResult &want)
{
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.gpuCtxSwitches, want.gpuCtxSwitches);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.finish, want.finish);
    EXPECT_EQ(got.kindBusy, want.kindBusy);
    ASSERT_EQ(got.usage.size(), want.usage.size());
    for (const auto &[res, use] : want.usage) {
        const auto it = got.usage.find(res);
        ASSERT_NE(it, got.usage.end()) << res.toString();
        EXPECT_EQ(it->second.busy, use.busy) << res.toString();
        EXPECT_EQ(it->second.lastFree, use.lastFree) << res.toString();
        EXPECT_EQ(it->second.ops, use.ops) << res.toString();
    }
}

class ForkRecordTest
    : public ::testing::TestWithParam<std::tuple<bool, int, Leg>>
{
};

TEST_P(ForkRecordTest, ForkedSessionsAreBitIdenticalToColdBoot)
{
    const auto [use_hix, users, leg] = GetParam();
    const Recording cold = record(use_hix, users, leg, false);
    const Recording forked = record(use_hix, users, leg, true);

    ASSERT_GT(cold.ops, 0u);
    EXPECT_EQ(forked.ops, cold.ops);
    EXPECT_EQ(forked.digest, cold.digest);
    EXPECT_EQ(forked.ticks, cold.ticks);
    expectScheduleEqual(forked.schedule, cold.schedule);

    // Session startup accounting: both paths spend measurable host
    // time before the windows open, and a forked session owns no
    // private pages at window-open (everything is shared with the
    // template snapshot) while a cold HIX session has already paid
    // the enclave's boot-time writes.
    EXPECT_GT(cold.bootMs, 0.0);
    EXPECT_GT(forked.bootMs, 0.0);
    EXPECT_EQ(forked.residentPages, 0u);
    EXPECT_LE(forked.residentPages, cold.residentPages);
    if (use_hix) {
        EXPECT_GE(cold.residentPages,
                  static_cast<std::uint64_t>(users));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ForkWall, ForkRecordTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(TwoPhase, Volta)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "hix" : "gdev") +
               "_u" + std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) == TwoPhase ? "_twophase"
                                                    : "_volta");
    });

TEST(ForkCowIsolationTest, ForkWritesAreInvisibleToSiblingsAndSource)
{
    os::Machine source;
    const Bytes original = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(source.ram()
                    .writeAt(0x1000, original.data(), original.size())
                    .isOk());
    const os::MachineSnapshot snap = source.snapshot();

    auto fork_a = os::Machine::fork(snap);
    auto fork_b = os::Machine::fork(snap);
    const Bytes scribble = {0x11, 0x22, 0x33, 0x44};
    ASSERT_TRUE(fork_a->ram()
                    .writeAt(0x1000, scribble.data(), scribble.size())
                    .isOk());

    Bytes got(original.size());
    ASSERT_TRUE(
        fork_b->ram().readAt(0x1000, got.data(), got.size()).isOk());
    EXPECT_EQ(got, original);
    ASSERT_TRUE(
        source.ram().readAt(0x1000, got.data(), got.size()).isOk());
    EXPECT_EQ(got, original);
    ASSERT_TRUE(
        fork_a->ram().readAt(0x1000, got.data(), got.size()).isOk());
    EXPECT_EQ(got, scribble);
}

TEST(ForkCowIsolationTest, SnapshotOutlivesItsSourceMachine)
{
    const Bytes original = {0x42, 0x24, 0x99, 0x77};
    std::optional<os::MachineSnapshot> snap;
    {
        os::Machine source;
        ASSERT_TRUE(
            source.ram()
                .writeAt(0x2000, original.data(), original.size())
                .isOk());
        snap = source.snapshot();
    }  // source destroyed; the snapshot keeps the pages alive

    auto fork = os::Machine::fork(*snap);
    Bytes got(original.size());
    ASSERT_TRUE(
        fork->ram().readAt(0x2000, got.data(), got.size()).isOk());
    EXPECT_EQ(got, original);
}

TEST(ForkCowIsolationTest, ForkOwnsPagesOnlyOnceItWrites)
{
    os::Machine source;
    const Bytes data(4096, 0xa5);
    ASSERT_TRUE(
        source.ram().writeAt(0x3000, data.data(), data.size()).isOk());
    const os::MachineSnapshot snap = source.snapshot();

    auto fork = os::Machine::fork(snap);
    EXPECT_EQ(fork->residentPages(), 0u);

    const Bytes one = {0x01};
    ASSERT_TRUE(
        fork->ram().writeAt(0x3000, one.data(), one.size()).isOk());
    EXPECT_GE(fork->residentPages(), 1u);
    // The write cloned the page first: the source still reads its own
    // bytes.
    Bytes got(2);
    ASSERT_TRUE(
        source.ram().readAt(0x3000, got.data(), got.size()).isOk());
    EXPECT_EQ(got[0], 0xa5);
}

TEST(ForkCowIsolationTest, RestoreSnapshotRewindsAReusedMachine)
{
    os::Machine source;
    const Bytes original = {0x10, 0x20, 0x30};
    ASSERT_TRUE(
        source.ram()
            .writeAt(0x4000, original.data(), original.size())
            .isOk());
    const os::MachineSnapshot snap = source.snapshot();

    auto fork = os::Machine::fork(snap);
    const Bytes scribble = {0xff, 0xee, 0xdd};
    ASSERT_TRUE(fork->ram()
                    .writeAt(0x4000, scribble.data(), scribble.size())
                    .isOk());
    fork->restoreSnapshot(snap);
    EXPECT_EQ(fork->residentPages(), 0u);
    Bytes got(original.size());
    ASSERT_TRUE(
        fork->ram().readAt(0x4000, got.data(), got.size()).isOk());
    EXPECT_EQ(got, original);
}

}  // namespace
}  // namespace hix::workloads
