/**
 * @file
 * The Service determinism wall for the GPU-pool runtime: a service
 * run is a pure function of its ServiceConfig. For every placement
 * policy, both runtimes, and pools of 1/2/4 devices serving 1/8/32
 * sessions, running the same seeded open-loop stream twice must
 * produce identical placement maps, admission times, per-session
 * finish ticks, latency percentiles, and merged trace digests — at
 * any recording worker count (TSan runs this wall to observe the
 * concurrent shard recording).
 *
 * Also pins the pool's collapse property: a closed-batch pool on one
 * device is bit-identical — digest and ticks — to the plain
 * runWorkload() path, so the service runtime strictly generalizes
 * the existing runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "os/machine.h"
#include "sim/trace.h"
#include "svc/service.h"

namespace hix::svc
{
namespace
{

ServiceConfig
makeServiceConfig(Policy policy, bool use_hix, int devices,
                  int sessions)
{
    ServiceConfig cfg;
    cfg.devices = devices;
    cfg.policy = policy;
    cfg.useHix = use_hix;
    cfg.seed = 0xd1ce;
    cfg.sessions = sessions;
    cfg.meanInterarrivalTicks = 3'000'000;
    cfg.tableCap = 8;
    cfg.appMix = {"NN"};
    cfg.userPopulation = 4;
    cfg.run.keepTrace = true;
    // Force a multi-worker recording pool (the auto pool may collapse
    // to one worker on small CI machines) so the wall — and TSan —
    // sees concurrent cold boots, shard recording and region reuse.
    if (sessions > 1)
        cfg.run.recordThreads = std::min(sessions, 8);
    return cfg;
}

struct Fingerprint
{
    std::vector<std::tuple<int, int, Tick, Tick, int>> placement;
    std::vector<Tick> finish;
    std::vector<std::uint64_t> ops;
    std::uint64_t digest = 0;
    Tick ticks = 0;
    Tick p50 = 0, p95 = 0, p99 = 0;

    bool
    operator==(const Fingerprint &other) const
    {
        return placement == other.placement &&
               finish == other.finish && ops == other.ops &&
               digest == other.digest && ticks == other.ticks &&
               p50 == other.p50 && p95 == other.p95 &&
               p99 == other.p99;
    }
};

Fingerprint
fingerprint(const ServiceConfig &cfg)
{
    auto out = runService(cfg);
    EXPECT_TRUE(out.isOk()) << out.status().message();
    Fingerprint fp;
    if (!out.isOk())
        return fp;
    for (const SessionPlan &s : out->plan.sessions)
        fp.placement.emplace_back(s.user, s.appIndex, s.arrival,
                                  s.admit, s.device);
    fp.finish = out->pool.sessionFinish;
    fp.ops = out->pool.sessionOps;
    fp.digest = sim::traceDigest(*out->pool.run.trace);
    fp.ticks = out->pool.run.ticks;
    fp.p50 = out->p50;
    fp.p95 = out->p95;
    fp.p99 = out->p99;
    return fp;
}

class ServiceRecordTest
    : public ::testing::TestWithParam<
          std::tuple<Policy, bool, int, int>>
{
};

TEST_P(ServiceRecordTest, SameSeedSameServiceRun)
{
    const auto [policy, use_hix, devices, sessions] = GetParam();
    const ServiceConfig cfg =
        makeServiceConfig(policy, use_hix, devices, sessions);
    const Fingerprint first = fingerprint(cfg);
    const Fingerprint second = fingerprint(cfg);

    ASSERT_EQ(first.placement.size(),
              static_cast<std::size_t>(sessions));
    ASSERT_NE(first.digest, 0u);
    EXPECT_TRUE(first == second);

    // Placement sanity: every session landed on a pool device and
    // every finish is at or after the session's admission.
    for (std::size_t i = 0; i < first.placement.size(); ++i) {
        const auto &[user, app, arrival, admit, device] =
            first.placement[i];
        EXPECT_GE(device, 0);
        EXPECT_LT(device, devices);
        EXPECT_GE(admit, arrival);
        EXPECT_GE(first.finish[i], admit);
        EXPECT_GT(first.ops[i], 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ServiceWall, ServiceRecordTest,
    ::testing::Combine(
        ::testing::Values(Policy::RoundRobin, Policy::LeastLoaded,
                          Policy::Affinity),
        ::testing::Bool(), ::testing::Values(1, 2, 4),
        ::testing::Values(1, 8, 32)),
    [](const auto &info) {
        return std::string(policyName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_hix" : "_gdev") + "_d" +
               std::to_string(std::get<2>(info.param)) + "_s" +
               std::to_string(std::get<3>(info.param));
    });

/** Mixed app mix: sessions on one device run different workloads;
 * the run must stay deterministic and every session must finish. */
TEST(ServiceMixedAppTest, MixedAppPoolIsDeterministic)
{
    ServiceConfig cfg = makeServiceConfig(Policy::LeastLoaded, true,
                                          2, 8);
    cfg.appMix = {"NN", "BFS"};
    const Fingerprint first = fingerprint(cfg);
    const Fingerprint second = fingerprint(cfg);
    ASSERT_NE(first.digest, 0u);
    EXPECT_TRUE(first == second);
    // The seeded mix draws both apps: op counts differ per session.
    const bool mixed =
        std::adjacent_find(first.ops.begin(), first.ops.end(),
                           std::not_equal_to<>()) != first.ops.end();
    EXPECT_TRUE(mixed);
}

class ServiceCollapseTest
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

/** Closed batch on one device == runWorkload(), bit for bit. */
TEST_P(ServiceCollapseTest, OneDeviceClosedBatchMatchesRunWorkload)
{
    const auto [use_hix, users] = GetParam();

    ServiceConfig cfg;
    cfg.devices = 1;
    cfg.policy = Policy::RoundRobin;
    cfg.useHix = use_hix;
    cfg.sessions = users;
    cfg.meanInterarrivalTicks = 0;  // closed batch: no admit ops
    cfg.appMix = {"NN"};
    cfg.run.keepTrace = true;
    auto service = runService(cfg);
    ASSERT_TRUE(service.isOk()) << service.status().message();

    workloads::RunConfig direct = cfg.run;
    direct.factory = [] { return workloads::makeRodinia("NN"); };
    direct.users = users;
    direct.useHix = use_hix;
    auto reference = workloads::runWorkload(direct);
    ASSERT_TRUE(reference.isOk()) << reference.status().message();

    EXPECT_EQ(sim::traceDigest(*service->pool.run.trace),
              sim::traceDigest(*reference->trace));
    EXPECT_EQ(service->pool.run.ticks, reference->ticks);
    EXPECT_EQ(service->pool.run.gpuCtxSwitches,
              reference->gpuCtxSwitches);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceWall, ServiceCollapseTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2, 8)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "hix" : "gdev") +
               "_u" + std::to_string(std::get<1>(info.param));
    });

TEST(SessionPoolEdgeTest, EmptySessionSetIsRejected)
{
    workloads::RunConfig config;
    config.factory = [] { return workloads::makeRodinia("NN"); };
    auto out = workloads::runSessionPool(config, {});
    EXPECT_FALSE(out.isOk());
}

TEST(SessionPoolEdgeTest, SessionOnMissingDeviceIsRejected)
{
    workloads::RunConfig config;
    config.factory = [] { return workloads::makeRodinia("NN"); };
    config.machine.gpuCount = 2;
    workloads::PoolSession bad;
    bad.device = 2;
    auto out = workloads::runSessionPool(config, {bad});
    EXPECT_FALSE(out.isOk());
}

TEST(SessionPoolEdgeTest, MoreThan65535PoolSessionsAreRejected)
{
    // Session 65,536 would share UserCpu 0 with session 0, and a
    // device-0 HIX session at ordinal 65,535 would land on the shard
    // management context: the pool must refuse before building any
    // workload.
    int factory_calls = 0;
    workloads::RunConfig config;
    config.factory = [&factory_calls] {
        ++factory_calls;
        return workloads::makeRodinia("NN");
    };
    const std::vector<workloads::PoolSession> sessions(65536);
    auto out = workloads::runSessionPool(config, sessions);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(factory_calls, 0);
}

TEST(SessionPoolEdgeTest, RunWorkloadRejectsMoreThan65535Users)
{
    int factory_calls = 0;
    workloads::RunConfig config;
    config.factory = [&factory_calls] {
        ++factory_calls;
        return workloads::makeRodinia("NN");
    };
    config.users = 65536;
    auto out = workloads::runWorkload(config);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(factory_calls, 0);
}

TEST(SessionPoolEdgeTest, RunWorkloadRejectsFactoryReturningNoWorkload)
{
    workloads::RunConfig config;
    config.factory = [] { return workloads::makeRodinia("XX"); };
    config.users = 2;
    auto out = workloads::runWorkload(config);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument);
}

TEST(SessionPoolEdgeTest, PoolSessionFactoryReturningNoWorkloadIsRejected)
{
    workloads::RunConfig config;
    config.factory = [] { return workloads::makeRodinia("NN"); };
    workloads::PoolSession good;
    workloads::PoolSession bad;
    bad.factory = [] { return workloads::makeRodinia("XX"); };
    auto out = workloads::runSessionPool(config, {good, bad});
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument);
}

TEST(SessionPoolEdgeTest, MachineWithoutRoomForItsGpusIsRejected)
{
    // Each GPU widens the MMIO window below 4 GiB by 512 MiB. From six
    // GPUs on it reaches into the EPC at [1 GiB, 1.125 GiB); eight
    // leave no DRAM, and nine wrap past address zero. The pool must
    // refuse before building any workload, not abort the process.
    for (int gpus : {6, 8, 9}) {
        int factory_calls = 0;
        workloads::RunConfig config;
        config.factory = [&factory_calls] {
            ++factory_calls;
            return workloads::makeRodinia("NN");
        };
        config.machine.gpuCount = gpus;
        auto out = workloads::runSessionPool(config, {{}});
        ASSERT_FALSE(out.isOk()) << gpus << " GPUs";
        EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument)
            << gpus << " GPUs";
        EXPECT_EQ(factory_calls, 0) << gpus << " GPUs";
    }
}

TEST(SessionPoolEdgeTest, FiveGpuHixPoolRuns)
{
    // The largest pool the default layout holds: a HIX session on the
    // last device boots its enclave clear of the EPC.
    workloads::RunConfig config;
    config.factory = [] { return workloads::makeRodinia("NN"); };
    config.useHix = true;
    config.machine.gpuCount = 5;
    workloads::PoolSession last;
    last.device = 4;
    auto out = workloads::runSessionPool(config, {{}, last});
    ASSERT_TRUE(out.isOk()) << out.status().message();
    EXPECT_GT(out->run.ticks, 0u);
}

TEST(SessionPoolEdgeTest, ServiceOnEightDevicesIsRejected)
{
    // The layout is refused before the demand probe records anything:
    // no shard, probe or pool, ever starts.
    ServiceConfig cfg = makeServiceConfig(Policy::RoundRobin, true, 8, 16);
    std::atomic<int> shards{0};
    cfg.run.shardHook = [&shards](int, os::Machine &) { ++shards; };
    auto out = runService(cfg);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(shards.load(), 0);
}

}  // namespace
}  // namespace hix::svc
