/**
 * @file
 * Parameterized correctness tests: every workload must run and
 * verify on both the unprotected baseline and the HIX secure path,
 * plus sanity checks of the timing shape (HIX overhead present for
 * transfer-heavy apps, baseline wins there; small apps faster on
 * HIX). Every workload's check must also reject a corrupted device
 * result, before and after its shared fixture is built.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include "sim/trace_export.h"
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

TEST(MultiUserTest, TraceJsonIsTheSameFromBothRecordingLoops)
{
    // The file a run writes is the export of the trace it kept and
    // the schedule it was scored with.
    const std::string path =
        ::testing::TempDir() + "multiuser_two_phase.json";
    RunConfig config;
    config.factory = [] { return makeRodinia("NN"); };
    config.users = 2;
    config.useHix = true;
    config.keepTrace = true;
    config.traceJsonPath = path;
    auto outcome = runWorkload(config);
    ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();

    std::ifstream file(path);
    std::stringstream written;
    written << file.rdbuf();
    std::ostringstream exported;
    sim::exportChromeTrace(*outcome->trace, outcome->schedule, exported);
    EXPECT_GT(written.str().size(), 100u);
    EXPECT_EQ(written.str(), exported.str());
    std::remove(path.c_str());
}

TEST(MultiUserTest, UnwritableTraceJsonPathFailsTheRun)
{
    // A trace the caller asked for but cannot get is an error, not a
    // silently missing file.
    RunConfig config;
    config.factory = [] { return makeRodinia("NN"); };
    config.traceJsonPath =
        ::testing::TempDir() + "no_such_dir/multiuser.json";
    auto outcome = runWorkload(config);
    ASSERT_FALSE(outcome.isOk());
    EXPECT_EQ(outcome.status().code(), StatusCode::Unavailable);
    EXPECT_NE(outcome.status().message().find(config.traceJsonPath),
              std::string::npos)
        << outcome.status().message();
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

/** How CorruptingApi damages a device result. */
enum class Corruption
{
    FlipBit30,
    QuietNaN,
};

const char *
corruptionName(Corruption how)
{
    return how == Corruption::FlipBit30 ? "flip30" : "nan";
}

void
PrintTo(Corruption how, std::ostream *os)
{
    *os << corruptionName(how);
}

/** GpuApi decorator that corrupts every 32-bit word of every
 *  memcpyDtoH result and forwards everything else untouched. */
class CorruptingApi : public GpuApi
{
  public:
    CorruptingApi(GpuApi &inner, Corruption how)
        : inner_(inner), how_(how)
    {
    }

    Result<Addr>
    memAlloc(std::uint64_t size) override
    {
        return inner_.memAlloc(size);
    }
    Status memFree(Addr va) override { return inner_.memFree(va); }
    Status
    memcpyHtoD(Addr dst, const Bytes &data) override
    {
        return inner_.memcpyHtoD(dst, data);
    }
    Result<Bytes>
    memcpyDtoH(Addr src, std::uint64_t len) override
    {
        auto data = inner_.memcpyDtoH(src, len);
        if (!data.isOk())
            return data;
        Bytes out = std::move(*data);
        for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
            std::uint32_t word;
            std::memcpy(&word, out.data() + i, 4);
            word = how_ == Corruption::FlipBit30 ? word ^ (1u << 30)
                                                 : 0x7FC00000u;
            std::memcpy(out.data() + i, &word, 4);
        }
        return out;
    }
    Result<gpu::KernelId>
    loadModule(const std::string &name) override
    {
        return inner_.loadModule(name);
    }
    Status
    launchKernel(gpu::KernelId kernel,
                 const gpu::KernelArgs &args) override
    {
        return inner_.launchKernel(kernel, args);
    }

  private:
    GpuApi &inner_;
    Corruption how_;
};

/** Workload decorator: runs the wrapped app through a CorruptingApi. */
class CorruptedWorkload : public Workload
{
  public:
    CorruptedWorkload(std::unique_ptr<Workload> inner, Corruption how)
        : Workload(inner->name()), inner_(std::move(inner)), how_(how)
    {
    }

    std::uint64_t
    timingScale() const override
    {
        return inner_->timingScale();
    }
    TransferSpec
    nominalTransfers() const override
    {
        return inner_->nominalTransfers();
    }
    void
    registerKernels(gpu::GpuDevice &device) override
    {
        inner_->registerKernels(device);
    }
    Status
    run(GpuApi &api) override
    {
        CorruptingApi corrupting(api, how_);
        return inner_->run(corrupting);
    }

  private:
    std::unique_ptr<Workload> inner_;
    Corruption how_;
};

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

class WrongResultTest
    : public ::testing::TestWithParam<std::tuple<std::string, Corruption>>
{
};

TEST_P(WrongResultTest, FailsWithColdOrWarmFixture)
{
    // Clean, corrupted, clean again, all in one process: the first
    // run builds the app's fixture, the corrupted run checks against
    // the warm fixture, and the last run shows that nothing the
    // corrupted run saw leaked into the fixture.
    const auto [name, how] = GetParam();
    auto clean = [&] { return makeByName(name); };
    auto corrupted = [&, how = how] {
        return std::unique_ptr<Workload>(
            new CorruptedWorkload(makeByName(name), how));
    };

    auto first = runBaseline(clean);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    auto bad = runBaseline(corrupted);
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::Internal)
        << bad.status().toString();
    auto again = runBaseline(clean);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    EXPECT_EQ(again->ticks, first->ticks);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WrongResultTest,
    ::testing::Combine(
        ::testing::Values("BP", "BFS", "GS", "HS", "LUD", "NW", "NN",
                          "PF", "SRAD", "matrix_add", "matrix_mul"),
        ::testing::Values(Corruption::FlipBit30, Corruption::QuietNaN)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               corruptionName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hix::workloads
