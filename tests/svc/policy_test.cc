/**
 * @file
 * Placement-policy property suite for the GPU-pool service planner.
 * planService() is a pure queueing model, so the suite drives it
 * with randomized (seeded) arrival streams and synthetic per-app
 * demand estimates and checks the policy invariants directly:
 * round-robin is session_index mod devices; least-loaded never
 * dispatches to a device while a strictly lighter one exists;
 * affinity keeps a returning user on its prior device. Saturation
 * and drain of the bounded session table and the zero-device /
 * zero-session edges are pinned alongside.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "svc/service.h"

namespace hix::svc
{
namespace
{

/** Three synthetic apps with distinct demands, so least-loaded
 * decisions actually depend on what ran before. */
const std::vector<std::string> kApps = {"light", "mid", "heavy"};
const std::vector<Tick> kDemand = {2'000'000, 5'000'000, 9'000'000};

ServiceConfig
makeStream(Policy policy, int devices, int sessions,
           std::uint64_t seed)
{
    ServiceConfig cfg;
    cfg.devices = devices;
    cfg.policy = policy;
    cfg.seed = seed;
    cfg.sessions = sessions;
    cfg.meanInterarrivalTicks = 1'500'000;
    cfg.appMix = kApps;
    cfg.userPopulation = 6;
    return cfg;
}

TEST(PolicyPropertyTest, RoundRobinIsSessionIndexModuloDevices)
{
    for (int devices : {1, 2, 4, 5}) {
        for (std::uint64_t seed : {1u, 77u, 4242u}) {
            ServiceConfig cfg =
                makeStream(Policy::RoundRobin, devices, 64, seed);
            cfg.tableCap = 4;  // admission waits must not change it
            auto plan = planService(cfg, kDemand);
            ASSERT_TRUE(plan.isOk());
            for (int i = 0; i < cfg.sessions; ++i)
                EXPECT_EQ(plan->sessions[i].device, i % devices)
                    << "session " << i << " devices " << devices;
        }
    }
}

TEST(PolicyPropertyTest, LeastLoadedNeverPicksAStrictlyHeavierDevice)
{
    for (int devices : {2, 3, 4}) {
        for (std::uint64_t seed : {3u, 99u, 51515u}) {
            const ServiceConfig cfg =
                makeStream(Policy::LeastLoaded, devices, 96, seed);
            auto plan = planService(cfg, kDemand);
            ASSERT_TRUE(plan.isOk());

            // Replay the planner's backlog model and check each
            // decision: the chosen device's outstanding work at
            // admission is minimal, ties broken toward index 0.
            std::vector<Tick> freeAt(devices, 0);
            for (const SessionPlan &s : plan->sessions) {
                auto backlog = [&](int d) {
                    return freeAt[d] > s.admit ? freeAt[d] - s.admit
                                               : Tick(0);
                };
                for (int d = 0; d < devices; ++d) {
                    EXPECT_LE(backlog(s.device), backlog(d));
                    if (d < s.device) {
                        EXPECT_LT(backlog(s.device), backlog(d))
                            << "tie must go to the lower index";
                    }
                }
                const Tick start =
                    std::max(s.admit, freeAt[s.device]);
                freeAt[s.device] = start + kDemand[s.appIndex];
            }
        }
    }
}

TEST(PolicyPropertyTest, AffinityKeepsReturningUsersOnTheirDevice)
{
    for (std::uint64_t seed : {7u, 1234u, 90210u}) {
        ServiceConfig cfg =
            makeStream(Policy::Affinity, 4, 96, seed);
        cfg.userPopulation = 5;  // users return often
        auto plan = planService(cfg, kDemand);
        ASSERT_TRUE(plan.isOk());

        std::map<int, int> homeOf;
        int returning = 0;
        for (const SessionPlan &s : plan->sessions) {
            auto [it, first] = homeOf.emplace(s.user, s.device);
            if (!first) {
                EXPECT_EQ(s.device, it->second)
                    << "user " << s.user << " moved devices";
                ++returning;
            }
        }
        EXPECT_GT(returning, 0);
    }
}

TEST(AdmissionTest, SaturatedUnitTableSerializesAdmissions)
{
    // Closed batch, one device, table of one: session i cannot be
    // admitted before session i-1's estimated completion, so admits
    // are exactly i * demand and everyone else queues.
    ServiceConfig cfg;
    cfg.devices = 1;
    cfg.policy = Policy::RoundRobin;
    cfg.sessions = 6;
    cfg.tableCap = 1;
    cfg.appMix = {"only"};
    const Tick demand = 3'000'000;
    auto plan = planService(cfg, {demand});
    ASSERT_TRUE(plan.isOk());
    for (int i = 0; i < cfg.sessions; ++i) {
        EXPECT_EQ(plan->sessions[i].arrival, 0u);
        EXPECT_EQ(plan->sessions[i].admit,
                  static_cast<Tick>(i) * demand);
    }
    EXPECT_EQ(plan->admitQueueDepthMax, cfg.sessions - 1);
}

TEST(AdmissionTest, LightLoadDrainsWithoutQueueing)
{
    // Demands far below the inter-arrival gap: nobody ever waits,
    // for a slot or for the device.
    ServiceConfig cfg = makeStream(Policy::LeastLoaded, 2, 64, 11);
    cfg.tableCap = 2;
    cfg.meanInterarrivalTicks = 1'000'000;
    auto plan = planService(cfg, {10, 20, 30});
    ASSERT_TRUE(plan.isOk());
    for (const SessionPlan &s : plan->sessions)
        EXPECT_EQ(s.admit, s.arrival);
    EXPECT_EQ(plan->admitQueueDepthMax, 0);
    for (int depth : plan->queueDepthMax)
        EXPECT_EQ(depth, 0);
}

TEST(AdmissionTest, ArrivalsAndAdmissionsAreMonotone)
{
    for (Policy policy : {Policy::RoundRobin, Policy::LeastLoaded,
                          Policy::Affinity}) {
        ServiceConfig cfg = makeStream(policy, 3, 80, 21);
        cfg.tableCap = 3;
        auto plan = planService(cfg, kDemand);
        ASSERT_TRUE(plan.isOk());
        for (int i = 1; i < cfg.sessions; ++i) {
            EXPECT_LT(plan->sessions[i - 1].arrival,
                      plan->sessions[i].arrival);
            EXPECT_LE(plan->sessions[i - 1].admit,
                      plan->sessions[i].admit);
        }
        int placed = 0;
        for (int count : plan->perDeviceSessions)
            placed += count;
        EXPECT_EQ(placed, cfg.sessions);
    }
}

TEST(EdgePinTest, ZeroSessionsYieldEmptyPlan)
{
    ServiceConfig cfg = makeStream(Policy::RoundRobin, 2, 0, 1);
    auto plan = planService(cfg, kDemand);
    ASSERT_TRUE(plan.isOk());
    EXPECT_TRUE(plan->sessions.empty());
    EXPECT_TRUE(plan->perDeviceSessions.empty());

    cfg.devices = 0;  // zero sessions need no devices
    EXPECT_TRUE(planService(cfg, kDemand).isOk());
}

TEST(EdgePinTest, ZeroDevicePoolIsRejected)
{
    ServiceConfig cfg = makeStream(Policy::RoundRobin, 0, 4, 1);
    EXPECT_FALSE(planService(cfg, kDemand).isOk());
    EXPECT_FALSE(runService(cfg).isOk());
}

TEST(EdgePinTest, MismatchedDemandVectorIsRejected)
{
    ServiceConfig cfg = makeStream(Policy::RoundRobin, 2, 4, 1);
    EXPECT_FALSE(planService(cfg, {1, 2}).isOk());
}

TEST(EdgePinTest, UnknownAppIsRejectedBeforeAnyRun)
{
    ServiceConfig cfg = makeStream(Policy::RoundRobin, 2, 4, 1);
    cfg.appMix = {"NN", "NOPE"};
    EXPECT_FALSE(runService(cfg).isOk());
}

TEST(UtilityTest, PercentilesUseNearestRank)
{
    std::vector<Tick> sample;
    for (Tick t = 1; t <= 100; ++t)
        sample.push_back(t * 10);
    EXPECT_EQ(percentileTick(sample, 50), 500u);
    EXPECT_EQ(percentileTick(sample, 95), 950u);
    EXPECT_EQ(percentileTick(sample, 99), 990u);
    EXPECT_EQ(percentileTick(sample, 100), 1000u);
    EXPECT_EQ(percentileTick({42}, 99), 42u);
    EXPECT_EQ(percentileTick({}, 50), 0u);
}

}  // namespace
}  // namespace hix::svc
