/**
 * @file
 * The determinism wall for parallel per-user trace recording: a
 * parallel (thread-per-user) recording must be *bit-identical* to a
 * serial recording of the same configuration — same merged trace
 * digest, same scheduled ticks — across user counts, runtimes, the
 * pipeline ablation and the Volta preset (per-context compute
 * queues, DMA channels and enclave lanes), and for every workload
 * when its recording threads race to build its shared fixture. Also
 * pins the recording-thread contract for per-shard TraceRecorder
 * observers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/trace.h"
#include "workloads/runner.h"

namespace hix::workloads
{
namespace
{

/** Machine and data-path preset of a determinism-wall leg. */
enum class Preset
{
    NoPipeline,  //!< Fermi, chunk pipelining off
    Pipeline,    //!< Fermi, the default data path
    Volta,       //!< pipelined, per-context engines
};

const char *
presetName(Preset preset)
{
    switch (preset) {
      case Preset::NoPipeline:
        return "nopipeline";
      case Preset::Pipeline:
        return "pipeline";
      case Preset::Volta:
        return "volta";
    }
    return "?";
}

/** gtest prints parameters in each ctest name's GetParam() suffix. */
void
PrintTo(Preset preset, std::ostream *os)
{
    *os << presetName(preset);
}

RunConfig
makeConfig(bool use_hix, int users, Preset preset, bool parallel)
{
    RunConfig config;
    config.factory = [] { return makeRodinia("NN"); };
    config.users = users;
    config.useHix = use_hix;
    config.pipeline = preset != Preset::NoPipeline;
    if (preset == Preset::Volta) {
        // The true Volta preset is 8 queues/channels; 16 users need a
        // 16-wide config for every session to own its engines
        // (pigeonhole). Widths are powers of two.
        const auto width =
            static_cast<std::uint32_t>(std::max(8, users));
        config.machine.timing.gpuConcurrentContexts = width;
        config.machine.timing.gpuDmaChannels = width;
        config.machine.timing.gpuEnclaveLanes = width;
    }
    // Serial records every shard on the calling thread. Parallel
    // forces one recording thread per user (the auto pool sizes to
    // the host and may collapse to one worker on small CI machines):
    // the wall must exercise — and TSan must observe — the maximally
    // parallel interleaving regardless of where it runs.
    config.recordThreads = parallel ? users : 1;
    config.keepTrace = true;
    return config;
}

struct Recording
{
    std::uint64_t digest = 0;
    Tick ticks = 0;
    std::uint64_t ctxSwitches = 0;
    std::size_t ops = 0;
};

Recording
record(bool use_hix, int users, Preset preset, bool parallel)
{
    auto outcome =
        runWorkload(makeConfig(use_hix, users, preset, parallel));
    EXPECT_TRUE(outcome.isOk()) << outcome.status().message();
    Recording r;
    r.digest = sim::traceDigest(*outcome->trace);
    r.ticks = outcome->ticks;
    r.ctxSwitches = outcome->gpuCtxSwitches;
    r.ops = outcome->trace->size();
    return r;
}

class ParallelRecordTest
    : public ::testing::TestWithParam<std::tuple<bool, int, Preset>>
{
};

TEST_P(ParallelRecordTest, ParallelRecordingIsBitIdenticalToSerial)
{
    const auto [use_hix, users, preset] = GetParam();
    const Recording serial = record(use_hix, users, preset, false);
    const Recording parallel = record(use_hix, users, preset, true);

    ASSERT_GT(serial.ops, 0u);
    EXPECT_EQ(parallel.ops, serial.ops);
    EXPECT_EQ(parallel.digest, serial.digest);
    EXPECT_EQ(parallel.ticks, serial.ticks);
    EXPECT_EQ(parallel.ctxSwitches, serial.ctxSwitches);
}

TEST_P(ParallelRecordTest, ParallelRecordingIsStableAcrossRepeats)
{
    // Thread interleavings differ run to run; recordings must not.
    const auto [use_hix, users, preset] = GetParam();
    const Recording first = record(use_hix, users, preset, true);
    const Recording second = record(use_hix, users, preset, true);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.ticks, second.ticks);
}

INSTANTIATE_TEST_SUITE_P(
    UsersByRuntimeByPipeline, ParallelRecordTest,
    ::testing::Combine(::testing::Bool(),  // useHix
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(Preset::NoPipeline,
                                         Preset::Pipeline,
                                         Preset::Volta)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "hix" : "gdev") +
               "_users" + std::to_string(std::get<1>(info.param)) +
               "_" + presetName(std::get<2>(info.param));
    });

/** The nine Rodinia apps by abbreviation, plus the two matrix
 *  workloads. */
std::unique_ptr<Workload>
makeByName(const std::string &name)
{
    if (name == "matrix_add")
        return makeMatrixAdd(2048);
    if (name == "matrix_mul")
        return makeMatrixMul(2048);
    return makeRodinia(name);
}

class ParallelRecordFixtureTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParallelRecordFixtureTest, ConcurrentFirstUseMatchesSerial)
{
    // ctest runs each case in a fresh process, so the first run below
    // is the process's first use of the workload: its four recording
    // threads race to build the shared fixture.
    const std::string name = GetParam();
    RunConfig config;
    config.factory = [name] { return makeByName(name); };
    config.users = 4;
    config.useHix = false;
    config.keepTrace = true;
    config.recordThreads = 4;
    auto parallel = runWorkload(config);
    ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();

    config.recordThreads = 1;
    auto serial = runWorkload(config);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    EXPECT_EQ(sim::traceDigest(*parallel->trace),
              sim::traceDigest(*serial->trace));
    EXPECT_EQ(parallel->ticks, serial->ticks);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ParallelRecordFixtureTest,
    ::testing::Values("BP", "BFS", "GS", "HS", "LUD", "NW", "NN", "PF",
                      "SRAD", "matrix_add", "matrix_mul"),
    [](const auto &info) { return info.param; });

TEST(ParallelRecordTestAutoPool, AutoSizedPoolIsBitIdenticalToo)
{
    // recordThreads = 0 sizes the pool to min(users, hardware
    // threads) and statically round-robins users over the workers; a
    // worker recording several shards back to back must change
    // nothing.
    RunConfig config = makeConfig(/*use_hix=*/true, /*users=*/8,
                                  Preset::Pipeline, /*parallel=*/true);
    config.recordThreads = 0;
    auto autoPool = runWorkload(config);
    ASSERT_TRUE(autoPool.isOk()) << autoPool.status().message();

    const Recording serial =
        record(/*use_hix=*/true, 8, Preset::Pipeline, false);
    EXPECT_EQ(sim::traceDigest(*autoPool->trace), serial.digest);
    EXPECT_EQ(autoPool->ticks, serial.ticks);

    config.recordThreads = 3;  // users % workers != 0: uneven strides
    auto uneven = runWorkload(config);
    ASSERT_TRUE(uneven.isOk()) << uneven.status().message();
    EXPECT_EQ(sim::traceDigest(*uneven->trace), serial.digest);
    EXPECT_EQ(uneven->ticks, serial.ticks);
}

TEST(ParallelRecordObserverTest, ObserversFireOnTheRecordingThread)
{
    // Per-shard observers are the security harness's attack hook;
    // under parallel recording they must fire synchronously on their
    // own shard's recording thread, with labels already resolved.
    constexpr int kUsers = 4;
    struct ShardLog
    {
        std::thread::id hookThread;
        std::vector<std::thread::id> notifyThreads;
        std::vector<std::string> labels;
    };
    std::vector<ShardLog> logs(kUsers);

    RunConfig config = makeConfig(/*use_hix=*/true, kUsers,
                                  Preset::Pipeline, /*parallel=*/true);
    config.shardHook = [&logs](int user, os::Machine &machine) {
        logs[user].hookThread = std::this_thread::get_id();
        machine.recorder().addObserver(
            [&logs, user](const sim::Op &,
                          const std::string &label) {
                logs[user].notifyThreads.push_back(
                    std::this_thread::get_id());
                logs[user].labels.push_back(label);
            });
    };
    auto outcome = runWorkload(config);
    ASSERT_TRUE(outcome.isOk()) << outcome.status().message();

    std::set<std::thread::id> shard_threads;
    for (int u = 0; u < kUsers; ++u) {
        const ShardLog &log = logs[u];
        ASSERT_FALSE(log.notifyThreads.empty());
        shard_threads.insert(log.hookThread);
        // Every notification on this shard's own recording thread.
        for (const auto &tid : log.notifyThreads)
            EXPECT_EQ(tid, log.hookThread);
        // Labels arrive resolved (the data path records named ops).
        EXPECT_NE(std::count(log.labels.begin(), log.labels.end(),
                             "h2d_encrypt"),
                  0);
        EXPECT_NE(std::count(log.labels.begin(), log.labels.end(),
                             "hix_task_init"),
                  0);
    }
    // Shards really ran on distinct threads (and none on the caller).
    EXPECT_EQ(shard_threads.size(), std::size_t(kUsers));
    EXPECT_EQ(shard_threads.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelRecordObserverTest, SerialModeRunsShardsOnCallingThread)
{
    constexpr int kUsers = 2;
    std::vector<std::thread::id> hook_threads(kUsers);
    RunConfig config = makeConfig(/*use_hix=*/false, kUsers,
                                  Preset::Pipeline, /*parallel=*/false);
    config.shardHook = [&hook_threads](int user, os::Machine &) {
        hook_threads[user] = std::this_thread::get_id();
    };
    ASSERT_TRUE(runWorkload(config).isOk());
    for (const auto &tid : hook_threads)
        EXPECT_EQ(tid, std::this_thread::get_id());
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

TEST(ParallelRecordErrorTest, LowestUserIndexErrorWins)
{
    // Error propagation must be deterministic under parallelism: the
    // lowest failing user's error is reported no matter which shard
    // thread happened to fail first. User 0 succeeds; all others
    // fail. Legs: serial, the auto-sized pool (one worker on a
    // one-core host), and eight forced workers.
    const struct
    {
        int users;
        int recordThreads;
    } legs[] = {{4, 1}, {4, 0}, {8, 8}};
    for (const auto &leg : legs) {
        int next_user = 0;
        RunConfig config;
        config.factory = [&next_user] {
            const int user = next_user++;
            return std::unique_ptr<Workload>(
                new FailingWorkload(user, user >= 1));
        };
        config.users = leg.users;
        config.useHix = false;
        config.recordThreads = leg.recordThreads;
        auto outcome = runWorkload(config);
        ASSERT_FALSE(outcome.isOk()) << "threads " << leg.recordThreads;
        EXPECT_NE(outcome.status().message().find("user 1"),
                  std::string::npos)
            << outcome.status().message();
    }
}

}  // namespace
}  // namespace hix::workloads
