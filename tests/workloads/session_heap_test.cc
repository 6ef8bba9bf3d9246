/**
 * @file
 * Steady-state sessions must not fault the heap back in.
 *
 * A session's large buffers (its memcpyDtoH results, device scratch)
 * go back to glibc when the session ends. Once glibc has freed a
 * chunk of a few MB that it had mmapped, it raises its mmap threshold
 * to that size and its trim threshold to twice that, so a session
 * whose frees add up to more than the trim threshold hands its heap
 * back to the kernel, and the next session takes a minor page fault
 * for every page of it again. A result check that copied a whole
 * 2.5 MB result (BP's weight matrix) was enough to cross that line on
 * every BP session: about 1,200 faults per session, a quarter of the
 * batch workload's CPU time in the kernel.
 *
 * Each case runs a batch once to warm the heap up, then counts the
 * calling thread's minor faults (getrusage(RUSAGE_THREAD)) over a
 * second identical batch recorded on that thread. ctest runs each case
 * in its own process, so glibc's thresholds start fresh every time.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>
#include <tuple>

#include "workloads/runner.h"
#include "workloads/workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HIX_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HIX_SANITIZER_ALLOCATOR 1
#endif
#endif

namespace hix::workloads
{
namespace
{

constexpr int Users = 8;
constexpr long MaxFaultsPerSession = 64;

// Unused in sanitizer builds, which skip the guard.
[[maybe_unused]] long
threadMinorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return usage.ru_minflt;
}

class SessionHeapTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(SessionHeapTest, SteadyStateSessionsDoNotRefaultTheHeap)
{
#ifdef HIX_SANITIZER_ALLOCATOR
    GTEST_SKIP() << "heap fault guard not run: the sanitizer allocator "
                    "replaces glibc malloc and its trim thresholds";
#elif !defined(__GLIBC__)
    GTEST_SKIP() << "heap fault guard not run: it models glibc malloc";
#else
    const auto &[app, use_hix] = GetParam();
    RunConfig config;
    config.factory = [app = app] { return makeRodinia(app); };
    config.users = Users;
    config.useHix = use_hix;
    config.recordThreads = 1;

    auto warm = runWorkload(config);
    ASSERT_TRUE(warm.isOk()) << warm.status().toString();

    const long before = threadMinorFaults();
    auto steady = runWorkload(config);
    const long faults = threadMinorFaults() - before;
    ASSERT_TRUE(steady.isOk()) << steady.status().toString();
    RecordProperty("minor_faults", static_cast<int>(faults));
    EXPECT_EQ(steady->ticks, warm->ticks);
    EXPECT_LE(faults / Users, MaxFaultsPerSession)
        << faults << " minor faults over " << Users << " sessions";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SessionHeapTest,
    ::testing::Combine(::testing::Values("BP", "PF"), ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_Hix" : "_Gdev");
    });

}  // namespace
}  // namespace hix::workloads
