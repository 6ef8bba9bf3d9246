/**
 * @file
 * Parameterized correctness tests: every workload must run and
 * verify on both the unprotected baseline and the HIX secure path,
 * plus sanity checks of the timing shape (HIX overhead present for
 * transfer-heavy apps, baseline wins there; small apps faster on
 * HIX).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "workloads/runner.h"

namespace hix::workloads
{
namespace
{

struct Case
{
    const char *name;
    bool hix;
};

/** Print the case by value. gtest's default byte dump would embed the
 *  name pointer and padding bytes, which differ between runs, so the
 *  registered ctest names would change on every build. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name << (c.hix ? " hix" : " gdev");
}

class WorkloadRunTest
    : public ::testing::TestWithParam<Case>
{
};

TEST_P(WorkloadRunTest, RunsAndVerifies)
{
    const Case c = GetParam();
    auto factory = [&] { return makeRodinia(c.name); };
    auto outcome = c.hix ? runHix(factory) : runBaseline(factory);
    ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();
    EXPECT_GT(outcome->ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rodinia, WorkloadRunTest,
    ::testing::Values(
        Case{"BP", false}, Case{"BP", true}, Case{"BFS", false},
        Case{"BFS", true}, Case{"GS", false}, Case{"GS", true},
        Case{"HS", false}, Case{"HS", true}, Case{"LUD", false},
        Case{"LUD", true}, Case{"NW", false}, Case{"NW", true},
        Case{"NN", false}, Case{"NN", true}, Case{"PF", false},
        Case{"PF", true}, Case{"SRAD", false}, Case{"SRAD", true}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.name) +
               (info.param.hix ? "_hix" : "_gdev");
    });

TEST(MatrixWorkloadTest, AddRunsBothPaths)
{
    auto factory = [] { return makeMatrixAdd(2048); };
    auto base = runBaseline(factory);
    ASSERT_TRUE(base.isOk()) << base.status().toString();
    auto hix = runHix(factory);
    ASSERT_TRUE(hix.isOk()) << hix.status().toString();
    // Matrix addition is transfer-dominated: HIX pays crypto.
    EXPECT_GT(hix->ticks, base->ticks);
}

TEST(MatrixWorkloadTest, MulOverheadShrinksWithSize)
{
    auto t = [](std::uint32_t n, bool use_hix) {
        auto factory = [n] { return makeMatrixMul(n); };
        auto r = use_hix ? runHix(factory) : runBaseline(factory);
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return r->ticks;
    };
    const double small_overhead =
        double(t(2048, true)) / double(t(2048, false));
    const double large_overhead =
        double(t(8192, true)) / double(t(8192, false));
    EXPECT_GT(small_overhead, 1.0);
    EXPECT_LT(large_overhead, small_overhead);
}

TEST(ShapeTest, PathfinderIsWorstCase)
{
    // PF (256 MB in, tiny kernel) must show a larger HIX overhead
    // than GS (compute-heavy) — the paper's headline contrast.
    auto ratio = [](const char *name) {
        auto factory = [name] { return makeRodinia(name); };
        auto base = runBaseline(factory);
        auto hix = runHix(factory);
        EXPECT_TRUE(base.isOk());
        EXPECT_TRUE(hix.isOk());
        return double(hix->ticks) / double(base->ticks);
    };
    const double pf = ratio("PF");
    const double gs = ratio("GS");
    EXPECT_GT(pf, 2.0);   // paper: +154%
    EXPECT_LT(gs, 1.15);  // paper: near parity
}

TEST(ShapeTest, SmallAppsFasterUnderHix)
{
    // HS/LUD/NN benefit from HIX's cheaper task init (Section 5.3.2).
    auto factory = [] { return makeRodinia("NN"); };
    auto base = runBaseline(factory);
    auto hix = runHix(factory);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(hix.isOk());
    EXPECT_LT(hix->ticks, base->ticks);
}

TEST(MultiUserTest, TwoUsersShareTheGpu)
{
    auto factory = [] { return makeRodinia("HS"); };
    auto one = runHix(factory, 1);
    auto two = runHix(factory, 2);
    ASSERT_TRUE(one.isOk()) << one.status().toString();
    ASSERT_TRUE(two.isOk()) << two.status().toString();
    // Two users take longer than one but less than twice (overlap).
    EXPECT_GT(two->ticks, one->ticks);
    EXPECT_LT(two->ticks, 2 * one->ticks);
}

TEST(MultiUserTest, HixPaysContextSwitchesBaselineDoesNot)
{
    auto factory = [] { return makeRodinia("HS"); };
    auto hix = runHix(factory, 2);
    auto base = runBaseline(factory, 2);
    ASSERT_TRUE(hix.isOk());
    ASSERT_TRUE(base.isOk());
    // Pre-Volta MPS merges baseline users into one context.
    EXPECT_EQ(base->gpuCtxSwitches, 0u);
    EXPECT_GT(hix->gpuCtxSwitches, 0u);
}

TEST(AblationTest, PipeliningHelpsTransfers)
{
    RunConfig with;
    with.factory = [] { return makeRodinia("PF"); };
    RunConfig without = with;
    without.pipeline = false;
    auto fast = runWorkload(with);
    auto slow = runWorkload(without);
    ASSERT_TRUE(fast.isOk());
    ASSERT_TRUE(slow.isOk());
    EXPECT_LT(fast->ticks, slow->ticks);
}

TEST(AblationTest, SingleCopyBeatsNaiveDoubleCopy)
{
    RunConfig single;
    single.factory = [] { return makeRodinia("PF"); };
    RunConfig naive = single;
    naive.singleCopy = false;
    auto fast = runWorkload(single);
    auto slow = runWorkload(naive);
    ASSERT_TRUE(fast.isOk());
    ASSERT_TRUE(slow.isOk());
    EXPECT_LT(fast->ticks, slow->ticks);
}

}  // namespace
}  // namespace hix::workloads
