/**
 * @file
 * Deterministic fuzz runner: determinism witnesses (same seed =>
 * identical traces, digest, and verdict), the full 10k-iteration
 * budget over every built-in target, and shrinker minimality on
 * synthetic failing targets.
 *
 * Set HIX_FUZZ_SEED to re-run the budget under a different seed; the
 * documented default is 0x5ec2e7.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include <gtest/gtest.h>

#include "testing/fuzz.h"
#include "testing/fuzz_targets.h"

using namespace hix;
using namespace hix::harness;

namespace
{

constexpr std::uint64_t DefaultSeed = 0x5ec2e7;
constexpr std::uint64_t BudgetIterations = 10000;

std::uint64_t
seedFromEnv()
{
    const char *env = std::getenv("HIX_FUZZ_SEED");
    return env ? std::strtoull(env, nullptr, 0) : DefaultSeed;
}

TEST(FuzzRunner, TraceDerivationIsDeterministic)
{
    FuzzRunner a(DefaultSeed, 32);
    FuzzRunner b(DefaultSeed, 32);
    registerBuiltinFuzzTargets(a);
    registerBuiltinFuzzTargets(b);
    ASSERT_EQ(a.targets().size(), b.targets().size());
    for (std::size_t t = 0; t < a.targets().size(); ++t)
        for (std::uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(a.traceFor(a.targets()[t], i),
                      b.traceFor(b.targets()[t], i));
}

TEST(FuzzRunner, TracesRespectLengthBounds)
{
    FuzzRunner runner(DefaultSeed, 1);
    registerBuiltinFuzzTargets(runner);
    for (const FuzzTarget &target : runner.targets())
        for (std::uint64_t i = 0; i < 64; ++i) {
            const auto ops = runner.traceFor(target, i);
            EXPECT_GE(ops.size(), target.minOps) << target.name;
            EXPECT_LE(ops.size(), target.maxOps) << target.name;
        }
}

TEST(FuzzRunner, TargetsGetIndependentStreams)
{
    FuzzRunner runner(DefaultSeed, 1);
    registerBuiltinFuzzTargets(runner);
    ASSERT_GE(runner.targets().size(), 2u);
    EXPECT_NE(runner.traceFor(runner.targets()[0], 0),
              runner.traceFor(runner.targets()[1], 0));
}

TEST(FuzzRunner, SameSeedSameDigestDifferentSeedDifferentDigest)
{
    FuzzRunner a(DefaultSeed, 64);
    FuzzRunner b(DefaultSeed, 64);
    FuzzRunner c(DefaultSeed + 1, 64);
    registerBuiltinFuzzTargets(a);
    registerBuiltinFuzzTargets(b);
    registerBuiltinFuzzTargets(c);
    const auto va = a.runAll();
    const auto vb = b.runAll();
    const auto vc = c.runAll();
    ASSERT_EQ(va.size(), vb.size());
    ASSERT_EQ(va.size(), vc.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(va[i].digest, vb[i].digest) << va[i].target;
        EXPECT_EQ(va[i].failed, vb[i].failed) << va[i].target;
        EXPECT_EQ(va[i].trace, vb[i].trace) << va[i].target;
        EXPECT_NE(va[i].digest, vc[i].digest) << va[i].target;
    }
}

TEST(FuzzRunner, FullBudgetPassesOnEveryBuiltinTarget)
{
    const std::uint64_t seed = seedFromEnv();
    FuzzRunner runner(seed, BudgetIterations);
    registerBuiltinFuzzTargets(runner);
    std::cout << "fuzzing with seed 0x" << std::hex << seed
              << std::dec << "\n";
    const auto verdicts = runner.runAll(&std::cout);
    ASSERT_EQ(verdicts.size(), 7u);
    for (const FuzzVerdict &v : verdicts) {
        EXPECT_FALSE(v.failed)
            << v.target << " failed at iteration "
            << v.failingIteration << ": " << v.message << " ("
            << v.trace.size() << "-op trace)";
        EXPECT_EQ(v.iterations, BudgetIterations) << v.target;
    }
}

TEST(FuzzShrinker, ReducesToSingleCulpritOp)
{
    // Synthetic target: fails iff any op has low byte 0x2A. The
    // minimal failing trace is exactly one such op.
    FuzzTarget target;
    target.name = "synthetic_single";
    target.minOps = 16;
    target.maxOps = 48;
    target.run = [](const std::vector<std::uint64_t> &ops) -> Status {
        for (std::uint64_t op : ops)
            if ((op & 0xff) == 0x2A)
                return errInternal("culprit byte present");
        return Status::ok();
    };
    FuzzRunner runner(DefaultSeed, 2000);
    const FuzzVerdict v = runner.runTarget(target);
    ASSERT_TRUE(v.failed) << "no failing trace found in budget";
    ASSERT_EQ(v.trace.size(), 1u);
    EXPECT_EQ(v.trace[0] & 0xff, 0x2Au);
    // The shrunk trace replays directly through the target.
    EXPECT_FALSE(target.run(v.trace).isOk());
}

TEST(FuzzShrinker, KeepsBothHalvesOfAConjunction)
{
    // Fails iff the trace contains an op with low byte 0x11 AND one
    // with low byte 0x22 — the minimum is two ops, which greedy
    // span-removal must not collapse further.
    FuzzTarget target;
    target.name = "synthetic_pair";
    target.minOps = 24;
    target.maxOps = 48;
    target.run = [](const std::vector<std::uint64_t> &ops) -> Status {
        bool a = false;
        bool b = false;
        for (std::uint64_t op : ops) {
            a = a || (op & 0xff) == 0x11;
            b = b || (op & 0xff) == 0x22;
        }
        return a && b ? errInternal("pair present") : Status::ok();
    };
    FuzzRunner runner(DefaultSeed, 5000);
    const FuzzVerdict v = runner.runTarget(target);
    ASSERT_TRUE(v.failed) << "no failing trace found in budget";
    ASSERT_EQ(v.trace.size(), 2u);
    EXPECT_FALSE(target.run(v.trace).isOk());
}

TEST(FuzzShrinker, ShrunkTraceDetectsRealBoundsBug)
{
    // Regression companion for the PhysMem bounds fix: a trace built
    // from a single crafted op drives the mapping_state target into
    // the huge-offset read that used to wrap `offset + len` and pass
    // the bounds check. With the overflow-safe check the target
    // accepts it; the hand-undone predicate rejects it.
    FuzzTarget target = mappingStateFuzzTarget();
    // op % 8 == 7 selects the PhysMem action; selector nibble 0xf at
    // bits [4,8) forces the near-2^64 offset.
    const std::uint64_t op = 0xffull << 4 | 0x7;
    EXPECT_TRUE(target.run({op}).isOk());
}

}  // namespace
