/**
 * @file
 * Unit tests for the op-DAG trace and the program-order recorder:
 * id assignment, dependency storage (inline and spilled), label
 * interning, merge remapping, and observer notification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace hix::sim
{
namespace
{

constexpr ResourceId cpu0{ResUnit::UserCpu, 0};
constexpr ResourceId dma{ResUnit::DmaHtoD, 0};

TEST(TraceTest, AddAssignsSequentialIds)
{
    Trace t;
    EXPECT_EQ(t.add(cpu0, 10, {}, OpKind::Control), 0u);
    EXPECT_EQ(t.add(cpu0, 10, {0}, OpKind::Control), 1u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.lastOp(), 1u);
}

TEST(TraceTest, InvalidDepsAreDropped)
{
    Trace t;
    OpId a = t.add(cpu0, 10, {InvalidOpId}, OpKind::Control);
    EXPECT_TRUE(t.deps(a).empty());
}

TEST(TraceTest, ForwardDependencyPanics)
{
    Trace t;
    t.add(cpu0, 10, {}, OpKind::Control);
    EXPECT_DEATH(t.add(cpu0, 10, {5}, OpKind::Control), "forward");
}

TEST(TraceTest, DepsSpillToPoolBeyondInlineCapacity)
{
    Trace t;
    OpId a = t.add(cpu0, 1, {}, OpKind::Control);
    OpId b = t.add(cpu0, 1, {}, OpKind::Control);
    OpId c = t.add(cpu0, 1, {}, OpKind::Control);
    OpId d = t.add(cpu0, 1, {a, b}, OpKind::Control);
    OpId e = t.add(cpu0, 1, {a, b, c}, OpKind::Control);

    ASSERT_EQ(t.deps(d).size(), Op::InlineDeps);
    EXPECT_EQ(t.deps(d)[0], a);
    EXPECT_EQ(t.deps(d)[1], b);

    ASSERT_EQ(t.deps(e).size(), 3u);
    EXPECT_EQ(t.deps(e)[0], a);
    EXPECT_EQ(t.deps(e)[1], b);
    EXPECT_EQ(t.deps(e)[2], c);
}

TEST(TraceTest, LabelsAreInternedPerTrace)
{
    Trace t;
    OpId a = t.add(cpu0, 1, {}, OpKind::Control, 0, "h2d_encrypt");
    OpId b = t.add(cpu0, 1, {}, OpKind::Control, 0, "h2d_encrypt");
    OpId c = t.add(cpu0, 1, {}, OpKind::Control, 0, "d2h_decrypt");
    OpId plain = t.add(cpu0, 1, {}, OpKind::Control);

    EXPECT_EQ(t.op(a).label, t.op(b).label);
    EXPECT_NE(t.op(a).label, t.op(c).label);
    EXPECT_EQ(t.op(plain).label, NoLabel);
    EXPECT_EQ(t.labelOf(t.op(a)), "h2d_encrypt");
    EXPECT_EQ(t.labelOf(t.op(c)), "d2h_decrypt");
    EXPECT_EQ(t.labelOf(t.op(plain)), "");
    // "", "h2d_encrypt", "d2h_decrypt"
    EXPECT_EQ(t.labelCount(), 3u);
}

TEST(TraceTest, ClearKeepsInternedLabels)
{
    Trace t;
    OpId a = t.add(cpu0, 1, {}, OpKind::Control, 0, "marker");
    const LabelId before = t.op(a).label;
    t.clear();
    EXPECT_TRUE(t.empty());
    OpId b = t.add(cpu0, 1, {}, OpKind::Control, 0, "marker");
    EXPECT_EQ(t.op(b).label, before);
}

TEST(TraceTest, TotalsByKind)
{
    Trace t;
    t.add(cpu0, 10, {}, OpKind::CryptoCpu, 100);
    t.add(dma, 20, {}, OpKind::Transfer, 200);
    t.add(dma, 30, {}, OpKind::Transfer, 300);
    EXPECT_EQ(t.totalDuration(OpKind::Transfer), 50u);
    EXPECT_EQ(t.totalBytes(OpKind::Transfer), 500u);
    EXPECT_EQ(t.totalDuration(OpKind::CryptoCpu), 10u);
    EXPECT_EQ(t.totalDuration(OpKind::Compute), 0u);
}

TEST(TraceTest, AppendRemapsIds)
{
    Trace a;
    a.add(cpu0, 10, {}, OpKind::Control);

    Trace b;
    OpId b0 = b.add(cpu0, 5, {}, OpKind::Control);
    b.add(dma, 7, {b0}, OpKind::Transfer);

    OpId offset = a.append(b);
    EXPECT_EQ(offset, 1u);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.deps(2)[0], 1u);
}

TEST(TraceTest, AppendRemapsSpilledDepsAndLabels)
{
    Trace a;
    a.add(cpu0, 1, {}, OpKind::Control, 0, "only_in_a");

    Trace b;
    OpId b0 = b.add(cpu0, 1, {}, OpKind::Control, 0, "shared");
    OpId b1 = b.add(cpu0, 1, {}, OpKind::Control);
    OpId b2 = b.add(cpu0, 1, {}, OpKind::Control);
    OpId b3 = b.add(dma, 1, {b0, b1, b2}, OpKind::Transfer, 0,
                    "only_in_b");

    Trace merged;
    merged.add(cpu0, 1, {}, OpKind::Control, 0, "shared");
    const OpId off = merged.append(b);
    ASSERT_EQ(merged.size(), 5u);

    // Spilled dep list rebased by the merge offset.
    const Op &m3 = merged.op(b3 + off);
    ASSERT_EQ(merged.deps(m3).size(), 3u);
    EXPECT_EQ(merged.deps(m3)[0], b0 + off);
    EXPECT_EQ(merged.deps(m3)[1], b1 + off);
    EXPECT_EQ(merged.deps(m3)[2], b2 + off);

    // Labels re-interned into the destination table: the shared label
    // collapses to one id, the new one resolves to its string.
    EXPECT_EQ(merged.op(0).label, merged.op(b0 + off).label);
    EXPECT_EQ(merged.labelOf(m3), "only_in_b");
}

TEST(TraceRecorderTest, DisabledRecorderDropsOps)
{
    TraceRecorder rec;
    EXPECT_FALSE(rec.enabled());
    EXPECT_EQ(rec.record(0, cpu0, 10, OpKind::Control), InvalidOpId);
}

TEST(TraceRecorderTest, ProgramOrderChainsPerActor)
{
    Trace t;
    TraceRecorder rec(&t);
    OpId a0 = rec.record(0, cpu0, 10, OpKind::Control);
    OpId b0 = rec.record(1, cpu0, 10, OpKind::Control);
    OpId a1 = rec.record(0, cpu0, 10, OpKind::Control);

    EXPECT_TRUE(t.deps(a0).empty());
    EXPECT_TRUE(t.deps(b0).empty());
    ASSERT_EQ(t.deps(a1).size(), 1u);
    EXPECT_EQ(t.deps(a1)[0], a0);
    EXPECT_EQ(rec.chainTail(0), a1);
    EXPECT_EQ(rec.chainTail(1), b0);
}

TEST(TraceRecorderTest, DetachedOpsDoNotMoveChain)
{
    Trace t;
    TraceRecorder rec(&t);
    OpId a0 = rec.record(0, cpu0, 10, OpKind::Control);
    OpId d = rec.recordDetached(dma, 20, OpKind::Transfer, {a0});
    EXPECT_EQ(rec.chainTail(0), a0);
    rec.setChainTail(0, d);
    EXPECT_EQ(rec.chainTail(0), d);
}

TEST(TraceRecorderTest, ExtraDepsAreMerged)
{
    Trace t;
    TraceRecorder rec(&t);
    OpId a0 = rec.record(0, cpu0, 10, OpKind::Control);
    OpId b0 = rec.record(1, cpu0, 10, OpKind::Control);
    OpId a1 = rec.record(0, cpu0, 10, OpKind::Control, 0, "join",
                         NoGpuContext, {b0});
    const auto deps = t.deps(a1);
    EXPECT_EQ(deps.size(), 2u);
    EXPECT_NE(std::find(deps.begin(), deps.end(), a0), deps.end());
    EXPECT_NE(std::find(deps.begin(), deps.end(), b0), deps.end());
}

TEST(TraceRecorderTest, ObserverSeesResolvedLabel)
{
    Trace t;
    TraceRecorder rec(&t);
    std::vector<std::string> seen;
    const int handle = rec.addObserver(
        [&seen](const Op &op, const std::string &label) {
            (void)op;
            seen.push_back(label);
        });
    rec.record(0, cpu0, 10, OpKind::Control, 0, "first");
    rec.record(0, cpu0, 10, OpKind::Control);
    rec.removeObserver(handle);
    rec.record(0, cpu0, 10, OpKind::Control, 0, "after_remove");
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "first");
    EXPECT_EQ(seen[1], "");
}

}  // namespace
}  // namespace hix::sim
