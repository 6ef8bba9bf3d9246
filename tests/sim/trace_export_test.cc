/**
 * @file
 * Tests for the Chrome trace-event exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace_export.h"

namespace hix::sim
{
namespace
{

TEST(TraceExportTest, EmitsWellFormedSkeleton)
{
    Trace t;
    OpId a = t.add(ResourceId{ResUnit::UserCpu, 0}, 1000, {},
                   OpKind::CryptoCpu, 64, "encrypt");
    t.add(ResourceId{ResUnit::DmaHtoD, 0}, 2000, {a},
          OpKind::Transfer, 64, "dma", 3);
    auto schedule = hix::sim::schedule(t);

    std::ostringstream oss;
    exportChromeTrace(t, schedule, oss);
    const std::string out = oss.str();

    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("encrypt"), std::string::npos);
    EXPECT_NE(out.find("dma_htod[0]"), std::string::npos);
    EXPECT_NE(out.find("\"gpu_ctx\":3"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    int depth = 0;
    for (char c : out) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(TraceExportTest, EscapesLabels)
{
    Trace t;
    t.add(ResourceId{ResUnit::UserCpu, 0}, 10, {}, OpKind::Control, 0,
          "we\"ird\\label");
    auto schedule = hix::sim::schedule(t);
    std::ostringstream oss;
    exportChromeTrace(t, schedule, oss);
    EXPECT_NE(oss.str().find("we\\\"ird\\\\label"), std::string::npos);
}

TEST(TraceExportTest, TimestampsKeepNanosecondResolution)
{
    // Two back-to-back ops past the 1 s mark, 1.5 us apart: each must
    // export its own exact start, not a six-significant-digit double.
    Trace t;
    const ResourceId cpu{ResUnit::UserCpu, 0};
    OpId wait = t.add(cpu, 1'234'567'891, {}, OpKind::Control);
    OpId a = t.add(cpu, 1'500, {wait}, OpKind::Control);
    t.add(cpu, 20, {a}, OpKind::Control);
    auto schedule = hix::sim::schedule(t);
    std::ostringstream oss;
    exportChromeTrace(t, schedule, oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("\"ts\":0.000,\"dur\":1234567.891"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"ts\":1234567.891,\"dur\":1.500"),
              std::string::npos)
        << out;
    // The 20 ns op is widened to the 50 ns minimum visible width.
    EXPECT_NE(out.find("\"ts\":1234569.391,\"dur\":0.050"),
              std::string::npos)
        << out;
}

TEST(TraceExportTest, EmptyTrace)
{
    Trace t;
    auto schedule = hix::sim::schedule(t);
    std::ostringstream oss;
    exportChromeTrace(t, schedule, oss);
    EXPECT_EQ(oss.str(), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace hix::sim
