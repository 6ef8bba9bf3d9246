/**
 * @file
 * Randomized stress test of the buddy allocator with invariant
 * checking after every operation: no overlapping live blocks, exact
 * free-byte accounting, and full coalescing back to one max block
 * after everything is freed.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "common/rng.h"
#include "common/units.h"
#include "driver/vram_allocator.h"

namespace hix::driver
{
namespace
{

struct StressCase
{
    std::uint64_t seed;
    int operations;
};

/** Print the case by its fields. gtest's default byte dump would
 *  include the struct's tail padding, so the registered ctest names
 *  would change from build to build. */
void
PrintTo(const StressCase &c, std::ostream *os)
{
    *os << "seed=" << c.seed << " ops=" << c.operations;
}

class VramStressTest : public ::testing::TestWithParam<StressCase>
{
};

TEST_P(VramStressTest, RandomAllocFreeKeepsInvariants)
{
    const StressCase param = GetParam();
    Rng rng(param.seed);
    VramAllocator alloc(16 * MiB, 64 * MiB, 4096);

    std::map<Addr, std::uint64_t> live;  // base -> block size
    std::uint64_t live_bytes = 0;

    for (int op = 0; op < param.operations; ++op) {
        const bool do_alloc =
            live.empty() || rng.nextBelow(100) < 55;
        if (do_alloc) {
            const std::uint64_t size = 1 + rng.nextBelow(512 * KiB);
            auto block = alloc.alloc(size);
            if (!block.isOk()) {
                EXPECT_EQ(block.status().code(),
                          StatusCode::ResourceExhausted);
                continue;
            }
            const std::uint64_t rounded = alloc.blockSize(*block);
            ASSERT_GE(rounded, size);

            // Must lie in the arena and not overlap any live block.
            ASSERT_GE(*block, 16 * MiB);
            ASSERT_LE(*block + rounded, 16 * MiB + 64 * MiB);
            auto next = live.lower_bound(*block);
            if (next != live.end()) {
                ASSERT_LE(*block + rounded, next->first);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, *block);
            }
            live[*block] = rounded;
            live_bytes += rounded;
        } else {
            auto victim = live.begin();
            std::advance(victim,
                         rng.nextBelow(live.size()));
            ASSERT_TRUE(alloc.free(victim->first).isOk());
            live_bytes -= victim->second;
            live.erase(victim);
        }
        ASSERT_EQ(alloc.freeBytes(), 64 * MiB - live_bytes);
    }

    for (const auto &[base, size] : live)
        ASSERT_TRUE(alloc.free(base).isOk());
    EXPECT_EQ(alloc.freeBytes(), 64 * MiB);
    // Fully coalesced: one maximal allocation succeeds.
    EXPECT_TRUE(alloc.alloc(64 * MiB).isOk());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VramStressTest,
    ::testing::Values(StressCase{1, 500}, StressCase{2, 1000},
                      StressCase{3, 2000}, StressCase{42, 1500},
                      StressCase{0xdead, 800}),
    [](const ::testing::TestParamInfo<StressCase> &info) {
        return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace hix::driver
