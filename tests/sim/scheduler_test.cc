/**
 * @file
 * Unit tests for the list scheduler: serialization on resources,
 * dependency respect, pipelining overlap, and GPU context-switch
 * accounting.
 */

#include <gtest/gtest.h>

#include "sim/scheduler.h"

namespace hix::sim
{
namespace
{

constexpr ResourceId cpu0{ResUnit::UserCpu, 0};
constexpr ResourceId cpu1{ResUnit::UserCpu, 1};
constexpr ResourceId dma{ResUnit::DmaHtoD, 0};
constexpr ResourceId gpu{ResUnit::GpuCompute, 0};

TEST(SchedulerTest, EmptyTrace)
{
    Trace t;
    auto res = schedule(t);
    EXPECT_EQ(res.makespan, 0u);
}

TEST(SchedulerTest, SequentialChainAccumulates)
{
    Trace t;
    OpId a = t.add(cpu0, 10, {}, OpKind::Control);
    OpId b = t.add(cpu0, 20, {a}, OpKind::Control);
    auto res = schedule(t);
    EXPECT_EQ(res.start[a], 0u);
    EXPECT_EQ(res.finish[a], 10u);
    EXPECT_EQ(res.start[b], 10u);
    EXPECT_EQ(res.makespan, 30u);
}

TEST(SchedulerTest, IndependentOpsOnDifferentResourcesOverlap)
{
    Trace t;
    t.add(cpu0, 100, {}, OpKind::CryptoCpu);
    t.add(cpu1, 100, {}, OpKind::CryptoCpu);
    auto res = schedule(t);
    EXPECT_EQ(res.makespan, 100u);
}

TEST(SchedulerTest, SameResourceSerializes)
{
    Trace t;
    t.add(dma, 100, {}, OpKind::Transfer);
    t.add(dma, 100, {}, OpKind::Transfer);
    auto res = schedule(t);
    EXPECT_EQ(res.makespan, 200u);
    EXPECT_EQ(res.usage.at(dma).busy, 200u);
    EXPECT_EQ(res.usage.at(dma).ops, 2u);
}

TEST(SchedulerTest, PipelinedChunksOverlapCryptoAndTransfer)
{
    // Four chunks: encrypt chunk i (cpu, 100) -> transfer chunk i
    // (dma, 50). Encryption is the bottleneck; the schedule should be
    // 4*100 + 50, not 4*(100+50).
    Trace t;
    OpId prev_enc = InvalidOpId;
    OpId last_xfer = InvalidOpId;
    for (int i = 0; i < 4; ++i) {
        std::vector<OpId> enc_deps;
        if (prev_enc != InvalidOpId)
            enc_deps.push_back(prev_enc);
        OpId enc = t.add(cpu0, 100, enc_deps, OpKind::CryptoCpu);
        last_xfer = t.add(dma, 50, {enc}, OpKind::Transfer);
        prev_enc = enc;
    }
    auto res = schedule(t);
    EXPECT_EQ(res.finishOf(last_xfer), 450u);
}

TEST(SchedulerTest, TransferBoundPipeline)
{
    // Transfer is the bottleneck: encrypt 20, transfer 100.
    Trace t;
    OpId prev_enc = InvalidOpId;
    OpId prev_xfer = InvalidOpId;
    for (int i = 0; i < 3; ++i) {
        std::vector<OpId> enc_deps;
        if (prev_enc != InvalidOpId)
            enc_deps.push_back(prev_enc);
        OpId enc = t.add(cpu0, 20, enc_deps, OpKind::CryptoCpu);
        prev_xfer = t.add(dma, 100, {enc}, OpKind::Transfer);
        prev_enc = enc;
    }
    auto res = schedule(t);
    // First transfer starts at 20; transfers then run back-to-back.
    EXPECT_EQ(res.finishOf(prev_xfer), 320u);
}

TEST(SchedulerTest, ContextSwitchChargedOnGpuComputeOnly)
{
    SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 7;

    Trace t;
    OpId a = t.add(gpu, 10, {}, OpKind::Compute, 0, "ctx0", 0);
    OpId b = t.add(gpu, 10, {a}, OpKind::Compute, 0, "ctx1", 1);
    OpId c = t.add(gpu, 10, {b}, OpKind::Compute, 0, "ctx1 again", 1);
    auto res = schedule(t, cfg);
    EXPECT_EQ(res.start[a], 0u);
    // One switch (0 -> 1) before b, none before c.
    EXPECT_EQ(res.start[b], 17u);
    EXPECT_EQ(res.start[c], 27u);
    EXPECT_EQ(res.gpuCtxSwitches, 1u);
}

TEST(SchedulerTest, PrefersResidentContextWhenBothReady)
{
    SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 50;

    // Two independent kernels per context, all ready at time 0.
    Trace t;
    t.add(gpu, 10, {}, OpKind::Compute, 0, "a0", 0);
    t.add(gpu, 10, {}, OpKind::Compute, 0, "b0", 1);
    t.add(gpu, 10, {}, OpKind::Compute, 0, "a1", 0);
    t.add(gpu, 10, {}, OpKind::Compute, 0, "b1", 1);
    auto res = schedule(t, cfg);
    // The engine should group per context: one switch total.
    EXPECT_EQ(res.gpuCtxSwitches, 1u);
    EXPECT_EQ(res.makespan, 90u);
}

TEST(SchedulerTest, NoSwitchChargeForNoContextOps)
{
    SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 50;
    Trace t;
    OpId a = t.add(gpu, 10, {}, OpKind::Compute, 0, "ctx0", 0);
    OpId b = t.add(gpu, 10, {a}, OpKind::CryptoGpu, 0, "noctx");
    auto res = schedule(t, cfg);
    EXPECT_EQ(res.start[b], 10u);
    EXPECT_EQ(res.gpuCtxSwitches, 0u);
}

TEST(SchedulerTest, KindBusyAggregates)
{
    Trace t;
    t.add(cpu0, 10, {}, OpKind::CryptoCpu);
    t.add(dma, 30, {}, OpKind::Transfer);
    t.add(dma, 20, {}, OpKind::Transfer);
    auto res = schedule(t);
    EXPECT_EQ(res.kindBusy.at(OpKind::CryptoCpu), 10u);
    EXPECT_EQ(res.kindBusy.at(OpKind::Transfer), 50u);
}

TEST(SchedulerTest, DiamondDependency)
{
    Trace t;
    OpId a = t.add(cpu0, 10, {}, OpKind::Control);
    OpId b = t.add(cpu0, 10, {a}, OpKind::Control);
    OpId c = t.add(cpu1, 30, {a}, OpKind::Control);
    OpId d = t.add(dma, 5, {b, c}, OpKind::Transfer);
    auto res = schedule(t);
    EXPECT_EQ(res.start[d], 40u);
    EXPECT_EQ(res.makespan, 45u);
}

TEST(SchedulerTest, FermiResidentContextWinsDispatchTie)
{
    // Pins the Fermi-style tie-break both engines must honour: when
    // two GPU ops become dispatchable at the same effective time, the
    // one in the resident context wins even if the other has a lower
    // op id (earlier program order).
    SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = 50;

    Trace t;
    OpId warm = t.add(gpu, 10, {}, OpKind::Compute, 0, "warm", 1);
    OpId other = t.add(gpu, 10, {warm}, OpKind::Compute, 0, "other", 0);
    OpId same = t.add(gpu, 10, {warm}, OpKind::Compute, 0, "same", 1);

    for (auto res : {schedule(t, cfg), scheduleReference(t, cfg)}) {
        // Context 1 is resident after `warm`; `same` (higher id) must
        // dispatch first, then `other` pays the one context switch.
        EXPECT_EQ(res.start[same], 10u);
        EXPECT_EQ(res.start[other], 70u);
        EXPECT_EQ(res.gpuCtxSwitches, 1u);
        EXPECT_EQ(res.makespan, 80u);
    }
}

TEST(SchedulerTest, FinishOfOutOfRangeIsNullopt)
{
    Trace t;
    OpId a = t.add(cpu0, 10, {}, OpKind::Control);
    auto res = schedule(t);
    EXPECT_EQ(res.finishOf(a), 10u);
    // Past-the-end probes used to read as "finished at tick 0"; they
    // must be distinguishable from a real tick now.
    EXPECT_EQ(res.finishOf(static_cast<OpId>(1)), std::nullopt);
    EXPECT_EQ(res.finishOf(InvalidOpId), std::nullopt);
}

TEST(SchedulerDeathTest, DependencyCyclePanicsInBothEngines)
{
    // The public Trace API cannot create cycles (forward deps panic
    // at add()), so a test-only mutator wires one up and both engines
    // must refuse to silently drop the unschedulable ops.
    Trace t;
    OpId a = t.add(cpu0, 10, {}, OpKind::Control);
    OpId b = t.add(cpu0, 10, {a}, OpKind::Control);
    t.add(cpu0, 10, {b}, OpKind::Control);
    const OpId back_edge[] = {b};
    t.overwriteDepsForTest(a, back_edge);
    EXPECT_DEATH(schedule(t), "dependency cycle");
    EXPECT_DEATH(scheduleReference(t), "dependency cycle");
}

}  // namespace
}  // namespace hix::sim
