/**
 * @file
 * Unit tests for the stats package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.h"

namespace hix::sim
{
namespace
{

TEST(StatsTest, ScalarAccumulates)
{
    Scalar s;
    s.add(1.5);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.sum(), 5.0);
    EXPECT_EQ(s.count(), 3u);
    s.reset();
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(StatsTest, GroupDumpContainsNames)
{
    StatGroup g("gpu");
    g.scalar("kernels") += 3;
    std::ostringstream oss;
    g.dump(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("gpu.kernels"), std::string::npos);
}

TEST(StatsTest, GroupReset)
{
    StatGroup g("x");
    g.scalar("a") += 5;
    g.reset();
    EXPECT_EQ(g.scalar("a").count(), 0u);
}

}  // namespace
}  // namespace hix::sim
