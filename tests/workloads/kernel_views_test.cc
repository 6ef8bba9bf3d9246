/**
 * @file
 * Differential walls for kernel device arrays and kernel bodies.
 *
 * KernelViewsTest launches every registered kernel twice on identical
 * VRAM images: once through the default accessor, where DeviceArrays
 * lends VRAM views, and once through GpuMemAccessor::perPage(), which
 * forces the per-page copy path (loadArray/storeArray). The two
 * launches must return the same Status and leave byte-identical VRAM.
 * Each layout is run in every kernel: all arrays viewable, a
 * non-contiguous map, misaligned arrays, an input overlapping a
 * written array, and a partially mapped written array. The case list
 * also holds launches whose array counts wrap past 2^64, which must
 * fail with InvalidArgument on both paths.
 *
 * KernelReferenceTest holds the kernels whose production bodies are
 * written for the vectorizer to their earlier loops
 * (reference_kernels.h): production through views, reference through
 * the per-page accessor, at the end-to-end benchmark's per-launch
 * shapes and at edge shapes. Status and VRAM must match after every
 * launch.
 *
 * VRAM is compared where a launch can reach it: every page a case
 * maps, plus the page on each side of each (Placed::reach).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpu/gpu_context.h"
#include "gpu/gpu_device.h"
#include "reference_kernels.h"
#include "workloads/rodinia_util.h"

namespace hix::workloads
{
namespace
{

constexpr std::uint64_t VramSize = 8 * MiB;
constexpr Addr VaBase = 0x10000000;
constexpr Addr PaBase = 1 * MiB;

using Launches = std::vector<gpu::KernelArgs>;

/** One kernel, the device buffers it takes and its launches. */
struct KernelCase
{
    std::string workload;
    std::string kernel;
    /** Initial bytes of each buffer, in kernel-argument order. */
    std::vector<Bytes> buffers;
    /** Buffer indices of the input and the written array that the
     *  overlap layout makes share bytes. */
    std::size_t overlapIn;
    std::size_t overlapOut;
    /** The argument lists, launched in order, given the buffers' VAs. */
    std::function<Launches(const std::vector<Addr> &)> launches;
    /** What a launch returns when every page is mapped. */
    StatusCode expect = StatusCode::Ok;
};

std::vector<float>
randomFloats(Rng &rng, std::size_t n, float lo, float hi)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = lo + (hi - lo) * static_cast<float>(rng.nextBelow(1 << 20)) /
                     float(1 << 20);
    return v;
}

std::vector<std::int32_t>
randomInts(Rng &rng, std::size_t n, std::uint32_t bound)
{
    std::vector<std::int32_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int32_t>(rng.nextBelow(bound));
    return v;
}

std::vector<KernelCase>
kernelCases()
{
    Rng rng(0x7e57);
    std::vector<KernelCase> cases;

    // BP: 1500 inputs, 16 hidden units (+ bias row/column).
    {
        const std::uint64_t in = 1500, hidden = 17;
        auto input = vecBytes(randomFloats(rng, in + 1, -1, 1));
        auto w1 = vecBytes(randomFloats(rng, (in + 1) * hidden, -1, 1));
        cases.push_back({"BP", "bp_layerforward",
                         {input, w1, vecBytes(std::vector<float>(hidden, 9))},
                         0, 2, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], in,
                                              589824}};
                         }});
        cases.push_back({"BP", "bp_adjust_weights",
                         {input, w1,
                          vecBytes(randomFloats(rng, hidden, -1, 1))},
                         0, 1, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], in,
                                              589824}};
                         }});
    }
    // BFS: a random CSR graph. The overlap layout aliases rows' last
    // 16 entries with the first 16 levels, which are 0, so the
    // frontier (level 1) keeps valid edge ranges: empty ones for nodes
    // n-15.., and node n-16, whose range would run backwards, is off
    // it.
    {
        const std::uint32_t n = 2000, degree = 6;
        std::vector<std::int32_t> rows(n + 1), level(n, -1);
        for (std::uint32_t v = 0; v <= n; ++v)
            rows[v] = static_cast<std::int32_t>(v * degree);
        auto edges = randomInts(rng, n * degree, n);
        for (std::uint32_t v = 0; v < n; ++v) {
            if (v < 64 || rng.nextBelow(4) == 0)
                level[v] = static_cast<std::int32_t>(rng.nextBelow(2));
        }
        std::fill_n(level.begin(), 16, 0);
        level[n - 16] = -1;
        cases.push_back({"BFS", "bfs_level",
                         {vecBytes(rows), vecBytes(edges), vecBytes(level)}, 0,
                         2, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], n,
                                              n * degree, 1, 1000000,
                                              8}};
                         }});
    }
    // GS: a 64 x 64 system at elimination step 3.
    {
        const std::uint64_t n = 64;
        auto a = vecBytes(randomFloats(rng, n * n, 1, 2));
        auto m = vecBytes(randomFloats(rng, n * n, -1, 1));
        auto b = vecBytes(randomFloats(rng, n, -1, 1));
        cases.push_back({"GS", "gs_fan1", {a, m}, 0, 1,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], n, 3, 2048}};
                         }});
        cases.push_back({"GS", "gs_fan2", {a, b, m}, 2, 0,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], n, 3,
                                              2048}};
                         }});
    }
    // HS: one 64 x 64 step.
    {
        const std::uint64_t n = 64;
        cases.push_back({"HS", "hs_step",
                         {vecBytes(randomFloats(rng, n * n, 300, 340)),
                          vecBytes(randomFloats(rng, n * n, 0, 1)),
                          vecBytes(std::vector<float>(n * n, 7))},
                         0, 2, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], n,
                                              1024}};
                         }});
    }
    // LUD: 16 steps of a diagonally dominant 64 x 64 matrix. It has
    // one array, so its overlap layout is the viewable one.
    {
        const std::uint64_t n = 64;
        auto a = randomFloats(rng, n * n, 0, 1);
        for (std::uint64_t i = 0; i < n; ++i)
            a[i * n + i] += float(n);
        cases.push_back({"LUD", "lud_block", {vecBytes(a)}, 0, 0,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], n, 0, 16, 2048}};
                         }});
    }
    // NN: 3000 records.
    {
        const std::uint64_t count = 3000;
        float lat = 30.5f, lng = 90.25f;
        std::uint32_t lat_bits, lng_bits;
        std::memcpy(&lat_bits, &lat, 4);
        std::memcpy(&lng_bits, &lng, 4);
        cases.push_back({"NN", "nn_distance",
                         {vecBytes(randomFloats(rng, 2 * count, 0, 100)),
                          vecBytes(std::vector<float>(count, 5))},
                         0, 1, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], count,
                                              lat_bits, lng_bits}};
                         }});
    }
    // NW: a 64 x 64 alignment, block anti-diagonal 2.
    {
        const std::uint64_t n = 64;
        cases.push_back({"NW", "nw_diag",
                         {vecBytes(randomInts(rng, (n + 1) * (n + 1), 50)),
                          vecBytes(randomInts(rng, n * n, 20))},
                         1, 0, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], n, 2, 4096}};
                         }});
    }
    // PF: a 20 x 1500 grid, band rows 4..20 (so the band's tail is
    // what the overlap layout aliases with the cost row).
    {
        const std::uint64_t n = 1500;
        cases.push_back({"PF", "pf_band",
                         {vecBytes(randomInts(rng, 20 * n, 10)),
                          vecBytes(randomInts(rng, n, 100))},
                         0, 1, [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], n, 4, 20,
                                              8192}};
                         }});
    }
    // SRAD: a 40 x 48 image.
    {
        const std::uint64_t rows = 40, cols = 48;
        auto img = vecBytes(randomFloats(rng, rows * cols, 0.5f, 1.5f));
        auto c = vecBytes(randomFloats(rng, rows * cols, 0, 1));
        auto args = [=](const std::vector<Addr> &va) {
            return Launches{{va[0], va[1], rows, cols, 6340608}};
        };
        cases.push_back({"SRAD", "srad_coeff", {img, c}, 0, 1, args});
        cases.push_back({"SRAD", "srad_update", {img, c}, 1, 0, args});
    }
    // Matrix add and multiply.
    {
        auto u32 = [&](std::size_t n) {
            std::vector<std::uint32_t> v(n);
            for (auto &x : v)
                x = rng.next32() & 0xffff;
            return vecBytes(v);
        };
        const std::uint64_t nf = 48;
        cases.push_back({"MADD", "matrix_add_u32",
                         {u32(nf * nf), u32(nf * nf), u32(nf * nf)}, 1, 2,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], nf,
                                              1024}};
                         }});
        const std::uint64_t nm = 32;
        cases.push_back({"MMUL", "matrix_mul_u32",
                         {u32(nm * nm), u32(nm * nm), u32(nm * nm)}, 0, 2,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], nm,
                                              1024}};
                         }});
    }
    // Launches whose array counts (or PF's band address) wrap past
    // 2^64. Each would pass the size check with a small count while
    // its body indexed the whole logical range.
    {
        constexpr std::uint64_t Big = 1ull << 32;
        constexpr std::uint64_t Max = ~0ull;
        auto wrap = [&](std::string workload, std::string kernel,
                        std::size_t buffers, std::size_t in,
                        std::size_t out,
                        std::function<gpu::KernelArgs(
                            const std::vector<Addr> &)>
                            args) {
            cases.push_back(
                {std::move(workload), std::move(kernel),
                 std::vector<Bytes>(buffers, vecBytes(randomInts(rng, 64, 9))),
                 in, out,
                 [args](const std::vector<Addr> &va) {
                     return Launches{args(va)};
                 },
                 StatusCode::InvalidArgument});
        };
        using V = const std::vector<Addr> &;
        wrap("BP", "bp_layerforward", 3, 0, 2, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Max, 589824};
        });
        // (in + 1) * 17 == 2^64 + 16.
        wrap("BP", "bp_adjust_weights", 3, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2],
                                   0x0f0f0f0f0f0f0f0full, 589824};
        });
        wrap("BFS", "bfs_level", 3, 0, 2, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Max, 4,
                                   0, 1000000, 8};
        });
        wrap("GS", "gs_fan1", 2, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], Big, 0, 2048};
        });
        wrap("GS", "gs_fan2", 3, 2, 0, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Big, 0, 2048};
        });
        wrap("HS", "hs_step", 3, 0, 2, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Big, 1024};
        });
        wrap("LUD", "lud_block", 1, 0, 0, [](V va) {
            return gpu::KernelArgs{va[0], Big, 0, 16, 2048};
        });
        wrap("NN", "nn_distance", 2, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], 1ull << 63, 0, 0};
        });
        wrap("NW", "nw_diag", 2, 1, 0, [](V va) {
            return gpu::KernelArgs{va[0], va[1], Big, 0, 4096};
        });
        // rows * n == 2^64.
        wrap("PF", "pf_band", 2, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], 4, 0, 1ull << 62, 8192};
        });
        // One row, but row_begin * n * 4 + grid == 2^66 + grid.
        wrap("PF", "pf_band", 2, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], 4, 1ull << 62,
                                   (1ull << 62) + 1, 8192};
        });
        wrap("SRAD", "srad_coeff", 2, 0, 1, [](V va) {
            return gpu::KernelArgs{va[0], va[1], Big, Big, 6340608};
        });
        wrap("SRAD", "srad_update", 2, 1, 0, [](V va) {
            return gpu::KernelArgs{va[0], va[1], Big, Big, 6340608};
        });
        wrap("MADD", "matrix_add_u32", 3, 1, 2, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Big, 1024};
        });
        wrap("MMUL", "matrix_mul_u32", 3, 0, 2, [](V va) {
            return gpu::KernelArgs{va[0], va[1], va[2], Big, 1024};
        });
    }
    return cases;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "MADD")
        return makeMatrixAdd(1024);
    if (name == "MMUL")
        return makeMatrixMul(1024);
    return makeRodinia(name);
}

enum class Layout
{
    Viewable,
    NonContiguous,
    Misaligned,
    Overlap,
    PartialOutput,
};

std::uint64_t
pagesFor(std::uint64_t bytes)
{
    return (bytes + mem::PageSize - 1) / mem::PageSize;
}

/**
 * Map @p c's buffers into @p ctx as @p layout asks and return their
 * VAs. Buffers sit two pages apart; every mapped VA page gets its own
 * VRAM page.
 */
std::vector<Addr>
place(const KernelCase &c, Layout layout, gpu::GpuContext &ctx)
{
    std::vector<Addr> va;
    Addr next = VaBase;
    for (const Bytes &buf : c.buffers) {
        va.push_back(next + (layout == Layout::Misaligned ? 2 : 0));
        next += (pagesFor(buf.size() + 2) + 2) * mem::PageSize;
    }
    if (layout == Layout::Overlap && c.overlapIn != c.overlapOut) {
        // The input's last 64 bytes are the written array's first 64.
        va[c.overlapIn] =
            va[c.overlapOut] - (c.buffers[c.overlapIn].size() - 64);
    }

    std::set<Addr> pages;
    for (std::size_t i = 0; i < va.size(); ++i) {
        std::uint64_t n = pagesFor(mem::pageOffset(va[i]) +
                                   c.buffers[i].size());
        if (layout == Layout::PartialOutput && i == c.overlapOut)
            --n;  // the written array's last page stays unmapped
        for (std::uint64_t p = 0; p < n; ++p)
            pages.insert(mem::pageBase(va[i]) + p * mem::PageSize);
    }
    std::vector<Addr> order(pages.begin(), pages.end());
    if (layout == Layout::NonContiguous) {
        // Adjacent VA pages land on VRAM pages in reverse order.
        std::reverse(order.begin(), order.end());
    }
    Addr pa = PaBase;
    for (Addr page : order) {
        EXPECT_TRUE(ctx.map(page, pa, mem::PageSize).isOk());
        pa += mem::PageSize;
    }
    return va;
}

/** The production body of @p c's kernel, registered on @p device. */
const gpu::KernelFn &
productionKernel(gpu::GpuDevice &device, const KernelCase &c)
{
    makeWorkload(c.workload)->registerKernels(device);
    auto id = device.kernels().idOf(c.kernel);
    EXPECT_TRUE(id.isOk()) << c.kernel;
    return device.kernels().find(*id)->fn;
}

/**
 * One case placed in two identical VRAMs: @c fast reads it through
 * views, @c perPage through the per-page oracle accessor.
 */
struct Placed
{
    Placed(const KernelCase &c, Layout layout)
        : va(place(c, layout, ctx))
    {
        for (std::size_t i = 0; i < va.size(); ++i) {
            const Bytes &buf = c.buffers[i];
            // A partially mapped buffer fills only up to its hole,
            // identically on both sides.
            (void)fast.write(va[i], buf.data(), buf.size());
            (void)perPage.write(va[i], buf.data(), buf.size());
            for (Addr page = mem::pageBase(va[i]);
                 page < va[i] + buf.size(); page += mem::PageSize) {
                auto pa = ctx.translate(page);
                if (!pa.isOk())
                    continue;  // the hole
                reach.insert({*pa - mem::PageSize, *pa,
                              *pa + mem::PageSize});
            }
        }
    }

    static Bytes
    image(mem::PhysMem &vram)
    {
        Bytes out(VramSize);
        EXPECT_TRUE(vram.readAt(0, out.data(), out.size()).isOk());
        return out;
    }

    /** The pages of @p vram in @c reach, in address order. */
    Bytes
    reachable(mem::PhysMem &vram) const
    {
        Bytes out(reach.size() * mem::PageSize);
        std::uint8_t *dst = out.data();
        for (Addr page : reach) {
            EXPECT_TRUE(vram.readAt(page, dst, mem::PageSize).isOk());
            dst += mem::PageSize;
        }
        return out;
    }

    bool
    sameVram()
    {
        return reachable(views) == reachable(oracle);
    }

    gpu::GpuContext ctx{1};
    const std::vector<Addr> va;
    mem::PhysMem views{"views", VramSize};
    mem::PhysMem oracle{"oracle", VramSize};
    const gpu::GpuMemAccessor fast{&ctx, &views};
    const gpu::GpuMemAccessor perPage =
        gpu::GpuMemAccessor::perPage(&ctx, &oracle);
    /** The VRAM pages a launch can touch: every page the buffers map,
     *  plus the page on each side of each, so a body that runs past
     *  an array into the next page shows too. */
    std::set<Addr> reach;
};

void
runLayout(Layout layout)
{
    gpu::GpuDevice device("gpu", gpu::GpuGeometry{}, gpu::GpuPerfModel{},
                          sim::PlatformConfig::paper());
    for (const KernelCase &c : kernelCases()) {
        SCOPED_TRACE(c.kernel);
        const gpu::KernelFn &fn = productionKernel(device, c);
        Placed p(c, layout);
        StatusCode expect = c.expect;
        if (expect == StatusCode::Ok && layout == Layout::PartialOutput)
            expect = StatusCode::AccessFault;
        for (const gpu::KernelArgs &args : c.launches(p.va)) {
            const Status got = fn(p.fast, args);
            const Status want = fn(p.perPage, args);
            EXPECT_EQ(got.toString(), want.toString());
            EXPECT_EQ(want.code(), expect) << want.toString();
        }
        EXPECT_TRUE(p.sameVram()) << "VRAM differs from the per-page oracle";
        if (layout == Layout::Viewable && c.expect == StatusCode::Ok) {
            // The launch did change VRAM: the comparison is not
            // between two untouched images.
            mem::PhysMem fresh("fresh", VramSize);
            const gpu::GpuMemAccessor init(&p.ctx, &fresh);
            for (std::size_t i = 0; i < p.va.size(); ++i)
                ASSERT_TRUE(init.write(p.va[i], c.buffers[i].data(),
                                       c.buffers[i].size())
                                .isOk());
            EXPECT_FALSE(p.reachable(p.views) == p.reachable(fresh));
        }
    }
}

TEST(KernelViewsTest, ViewableArraysMatchPerPageOracle)
{
    runLayout(Layout::Viewable);
}

TEST(KernelViewsTest, NonContiguousMapMatchesPerPageOracle)
{
    runLayout(Layout::NonContiguous);
}

TEST(KernelViewsTest, MisalignedArraysMatchPerPageOracle)
{
    runLayout(Layout::Misaligned);
}

TEST(KernelViewsTest, InputOverlappingOutputMatchesPerPageOracle)
{
    runLayout(Layout::Overlap);
}

TEST(KernelViewsTest, PartiallyMappedOutputMatchesPerPageOracle)
{
    runLayout(Layout::PartialOutput);
}

/**
 * A bfs_level launch on a 4-node graph whose edge ranges or targets
 * @p corrupt breaks. A fifth buffer follows the level array in VRAM,
 * so level[1024] is its first int.
 */
KernelCase
malformedBfs(const std::function<void(std::vector<std::int32_t> &rows,
                                      std::vector<std::int32_t> &edges,
                                      std::vector<std::int32_t> &level)>
                 &corrupt)
{
    std::vector<std::int32_t> rows{0, 1, 2, 3, 4}, edges{1, 2, 3, 0},
        level{0, -1, -1, -1};
    corrupt(rows, edges, level);
    return {"BFS", "bfs_level",
            {vecBytes(rows), vecBytes(edges), vecBytes(level),
             vecBytes(std::vector<std::int32_t>(16, 0x5a5a5a5a))},
            0, 2,
            [](const std::vector<Addr> &va) {
                return Launches{{va[0], va[1], va[2], 4, 4, 0, 1000000, 8}};
            },
            StatusCode::AccessFault};
}

TEST(KernelViewsTest, BfsMalformedGraphFaultsInsideItsArrays)
{
    using Ints = std::vector<std::int32_t>;
    const std::vector<std::pair<std::string, KernelCase>> cases = {
        {"edge past n",
         malformedBfs([](Ints &, Ints &e, Ints &) { e[0] = 1024; })},
        {"negative edge",
         malformedBfs([](Ints &, Ints &e, Ints &) { e[0] = -1; })},
        {"negative row",
         malformedBfs([](Ints &r, Ints &, Ints &) { r[0] = -1; })},
        {"decreasing row",
         malformedBfs([](Ints &r, Ints &, Ints &) { r[0] = 2; })},
        {"row past edge_count",
         malformedBfs([](Ints &r, Ints &, Ints &) { r[1] = 5; })},
        // Node 0 sets level[2] before node 1's edge faults.
        {"fault after a write", malformedBfs([](Ints &, Ints &e, Ints &l) {
             e[0] = 2;
             e[1] = 1024;
             l[1] = 0;
         })},
    };
    gpu::GpuDevice device("gpu", gpu::GpuGeometry{}, gpu::GpuPerfModel{},
                          sim::PlatformConfig::paper());
    for (const auto &[name, c] : cases) {
        SCOPED_TRACE(name);
        const gpu::KernelFn &fn = productionKernel(device, c);
        Placed p(c, Layout::Viewable);
        const Bytes before = Placed::image(p.views);
        const gpu::KernelArgs args = c.launches(p.va).front();
        EXPECT_EQ(fn(p.fast, args).code(), StatusCode::AccessFault);
        EXPECT_EQ(fn(p.perPage, args).code(), StatusCode::AccessFault);
        EXPECT_TRUE(p.sameVram()) << "VRAM differs from the per-page oracle";

        // Only the level array may have changed.
        auto level_pa = p.ctx.translate(p.va[2]);
        ASSERT_TRUE(level_pa.isOk());
        const Bytes after = Placed::image(p.views);
        std::size_t outside = 0;
        for (std::size_t i = 0; i < after.size(); ++i) {
            const bool in_level =
                i >= *level_pa && i < *level_pa + c.buffers[2].size();
            outside += !in_level && after[i] != before[i];
        }
        EXPECT_EQ(outside, 0u) << "bytes changed outside the level array";
        for (const gpu::GpuMemAccessor *mem : {&p.fast, &p.perPage}) {
            Bytes neighbour(c.buffers[3].size());
            ASSERT_TRUE(
                mem->read(p.va[3], neighbour.data(), neighbour.size())
                    .isOk());
            EXPECT_TRUE(neighbour == c.buffers[3]);
        }
    }
}

TEST(KernelViewsTest, GaussianStepPastTheMatrixWritesNothing)
{
    // Steps t >= n update nothing; at t = 2^64 - 1, t + 1 wraps to
    // row 0 and the loops used to index before the arrays.
    Rng rng(0x65);
    const std::uint64_t n = 8;
    auto floats = [&](std::size_t count) {
        return vecBytes(randomFloats(rng, count, 1, 2));
    };
    gpu::GpuDevice device("gpu", gpu::GpuGeometry{}, gpu::GpuPerfModel{},
                          sim::PlatformConfig::paper());
    for (const std::uint64_t t : {n, std::uint64_t(~0ull)}) {
        const std::vector<KernelCase> cases = {
            {"GS", "gs_fan1", {floats(n * n), floats(n * n)}, 0, 1,
             [=](const std::vector<Addr> &va) {
                 return Launches{{va[0], va[1], n, t, 2048}};
             }},
            {"GS", "gs_fan2", {floats(n * n), floats(n), floats(n * n)}, 2,
             0, [=](const std::vector<Addr> &va) {
                 return Launches{{va[0], va[1], va[2], n, t, 2048}};
             }},
        };
        for (const KernelCase &c : cases) {
            SCOPED_TRACE(c.kernel + " t=" + std::to_string(t));
            const gpu::KernelFn &fn = productionKernel(device, c);
            Placed p(c, Layout::Viewable);
            const Bytes before = Placed::image(p.views);
            const gpu::KernelArgs args = c.launches(p.va).front();
            EXPECT_TRUE(fn(p.fast, args).isOk());
            EXPECT_TRUE(fn(p.perPage, args).isOk());
            EXPECT_TRUE(Placed::image(p.views) == before);
            EXPECT_TRUE(Placed::image(p.oracle) == before);
        }
    }
}

/** BFS launches over every level of a graph with @p n nodes. */
KernelCase
bfsEveryLevel(std::uint32_t n, std::uint32_t degree, std::uint64_t seed)
{
    // A ring backbone keeps the graph connected, as the workload's.
    Rng rng(seed);
    std::vector<std::int32_t> rows(n + 1), edges;
    for (std::uint32_t v = 0; v < n; ++v) {
        rows[v] = static_cast<std::int32_t>(edges.size());
        edges.push_back(static_cast<std::int32_t>((v + 1) % n));
        for (std::uint32_t d = 1; d < degree; ++d)
            edges.push_back(static_cast<std::int32_t>(rng.nextBelow(n)));
    }
    rows[n] = static_cast<std::int32_t>(edges.size());
    std::vector<std::int32_t> depth(n, -1);
    std::queue<std::uint32_t> q;
    depth[0] = 0;
    q.push(0);
    std::uint64_t levels = 0;
    while (!q.empty()) {
        const std::uint32_t v = q.front();
        q.pop();
        for (std::int32_t e = rows[v]; e < rows[v + 1]; ++e) {
            if (depth[edges[e]] < 0) {
                depth[edges[e]] = depth[v] + 1;
                levels = std::max<std::uint64_t>(levels, depth[v] + 1);
                q.push(static_cast<std::uint32_t>(edges[e]));
            }
        }
    }
    std::vector<std::int32_t> level(n, -1);
    level[0] = 0;
    const std::uint64_t m = edges.size();
    return {"BFS", "bfs_level",
            {vecBytes(rows), vecBytes(edges), vecBytes(level)}, 0, 2,
            [=](const std::vector<Addr> &va) {
                Launches out;
                for (std::uint64_t l = 0; l < levels; ++l)
                    out.push_back({va[0], va[1], va[2], n, m, l, 1000000,
                                   levels + 1});
                return out;
            }};
}

/** Random ints in [0, bound) with 16 spare ints after them, so a
 *  write past the array shows in VRAM. */
Bytes
intsWithSlack(Rng &rng, std::size_t n, std::uint32_t bound)
{
    return vecBytes(randomInts(rng, n + 16, bound));
}

Bytes
floatsWithSlack(Rng &rng, std::size_t n, float lo, float hi)
{
    return vecBytes(randomFloats(rng, n + 16, lo, hi));
}

/** A diagonally dominant n x n matrix with 16 spare floats after it. */
Bytes
ludMatrix(Rng &rng, std::uint64_t n)
{
    auto a = randomFloats(rng, n * n + 16, -0.5f, 0.5f);
    for (std::uint64_t i = 0; i < n; ++i)
        a[i * n + i] = float(n);
    return vecBytes(a);
}

/**
 * Cases for the reference comparison beyond kernelCases(): the
 * end-to-end benchmark's per-launch shapes and edge shapes. Inputs
 * keep the reference's int arithmetic from overflowing.
 */
std::vector<KernelCase>
referenceCases()
{
    Rng rng(0x4ef);
    std::vector<KernelCase> cases;
    // PF: one 256-row band (rows 1..256) of the 2048 x 2048 grid; the
    // band buffer holds just those rows.
    {
        const std::uint64_t n = 2048, r0 = 1, r1 = 257;
        cases.push_back(
            {"PF", "pf_band",
             {vecBytes(randomInts(rng, (r1 - r0) * n, 10)),
              vecBytes(randomInts(rng, n, 100))},
             0, 1, [=](const std::vector<Addr> &va) {
                 return Launches{{va[0] - r0 * n * 4, va[1], n, r0, r1, 8192}};
             }});
    }
    // PF edges: n = 0..3, and bands of no rows.
    for (const auto &[n, r0, r1] :
         std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                std::uint64_t>>{
             {0, 0, 5}, {1, 0, 7}, {2, 0, 7}, {3, 2, 9}, {16, 3, 3},
             {16, 5, 3}}) {
        const std::uint64_t rows = r1 > r0 ? r1 - r0 : 0;
        cases.push_back({"PF", "pf_band",
                         {intsWithSlack(rng, (r0 + rows) * n, 10),
                          intsWithSlack(rng, n, 100)},
                         0, 1, [n, r0, r1](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], n, r0, r1, 8192}};
                         }});
    }
    // BP: the end-to-end 36,864 inputs, an odd size, and no inputs
    // (only the bias row).
    for (const std::uint64_t in : {36864ull, 37ull, 0ull}) {
        auto input = floatsWithSlack(rng, in + 1, 0, 1);
        auto w1 = floatsWithSlack(rng, (in + 1) * 17, -0.005f, 0.005f);
        auto args = [in](const std::vector<Addr> &va) {
            return Launches{{va[0], va[1], va[2], in, 589824}};
        };
        cases.push_back({"BP", "bp_layerforward",
                         {input, w1, floatsWithSlack(rng, 17, 5, 6)}, 0, 2,
                         args});
        cases.push_back({"BP", "bp_adjust_weights",
                         {input, w1, floatsWithSlack(rng, 17, -0.05f, 0.05f)},
                         0, 1, args});
    }
    // BFS: the end-to-end graph (62,500 nodes, degree 6) at every
    // level, and a prime node count that no block size divides.
    cases.push_back(bfsEveryLevel(62500, 6, 0xbf5));
    cases.push_back(bfsEveryLevel(1009, 3, 7));
    // BFS: one node with a self-loop, at level 0 and at level -1.
    for (const std::int32_t cur : {0, -1}) {
        cases.push_back(
            {"BFS", "bfs_level",
             {vecBytes(std::vector<std::int32_t>{0, 1}),
              vecBytes(std::vector<std::int32_t>{0}),
              vecBytes(std::vector<std::int32_t>{cur})},
             0, 2, [cur](const std::vector<Addr> &va) {
                 return Launches{{va[0], va[1], va[2], 1, 1,
                                  static_cast<std::uint32_t>(cur), 1000000,
                                  2}};
             }});
    }
    // BFS at level -1: nodes still at -1 are the frontier, and a
    // frontier node that an earlier one sets to 0 is skipped.
    {
        const std::uint32_t n = 1009;
        std::vector<std::int32_t> rows(n + 1);
        for (std::uint32_t v = 0; v <= n; ++v)
            rows[v] = static_cast<std::int32_t>(3 * v);
        std::vector<std::int32_t> level(n);
        for (auto &l : level)
            l = -static_cast<std::int32_t>(rng.nextBelow(2));
        cases.push_back({"BFS", "bfs_level",
                         {vecBytes(rows), vecBytes(randomInts(rng, 3 * n, n)),
                          vecBytes(level)},
                         0, 2, [](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], n, 3 * n,
                                              0xffffffffull, 1000000, 2}};
                         }});
    }
    // LUD: the end-to-end 256 x 256 matrix over all 16 k-ranges.
    {
        const std::uint64_t n = 256, steps = 16, step = n / steps;
        auto a = randomFloats(rng, n * n, -0.5f, 0.5f);
        for (std::uint64_t i = 0; i < n; ++i)
            a[i * n + i] = float(n);
        cases.push_back({"LUD", "lud_block", {vecBytes(a)}, 0, 0,
                         [=](const std::vector<Addr> &va) {
                             Launches out;
                             for (std::uint64_t s = 0; s < steps; ++s)
                                 out.push_back(
                                     {va[0], n, s * step,
                                      s + 1 == steps ? n - 1 : (s + 1) * step,
                                      2048});
                             return out;
                         }});
    }
    // LUD edges: n = 1 and 2, k_begin >= n - 1, and k_end > n.
    for (const auto &[n, k0, k1] :
         std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                std::uint64_t>>{
             {1, 0, 1}, {2, 0, 1}, {2, 0, 2}, {8, 7, 8}, {8, 9, 12},
             {8, 0, 13}}) {
        cases.push_back({"LUD", "lud_block", {ludMatrix(rng, n)}, 0, 0,
                         [n, k0, k1](const std::vector<Addr> &va) {
                             return Launches{{va[0], n, k0, k1, 2048}};
                         }});
    }
    // BFS at cur = INT32_MAX: `next` wraps to INT32_MIN, so the select
    // stores a negative level into every unvisited target.
    {
        const std::uint32_t n = 1009;
        constexpr std::int32_t Top = std::numeric_limits<std::int32_t>::max();
        std::vector<std::int32_t> rows(n + 1);
        for (std::uint32_t v = 0; v <= n; ++v)
            rows[v] = static_cast<std::int32_t>(3 * v);
        std::vector<std::int32_t> level(n);
        for (auto &l : level)
            l = rng.nextBelow(2) == 0 ? Top : -1;
        cases.push_back({"BFS", "bfs_level",
                         {vecBytes(rows), vecBytes(randomInts(rng, 3 * n, n)),
                          vecBytes(level)},
                         0, 2, [](const std::vector<Addr> &va) {
                             return Launches{{va[0], va[1], va[2], n, 3 * n,
                                              std::uint64_t(Top), 1000000,
                                              2}};
                         }});
    }
    // LUD in k-ranges of 1, 2, 3, 5, 6 and 17 steps, which the body
    // walks in blocks of four plus a shorter last block: from k = 0 to
    // the end of a 61 x 61 matrix, and one range from k = 23 of a
    // fresh one.
    for (const std::uint64_t steps : {1, 2, 3, 5, 6, 17}) {
        const std::uint64_t n = 61;
        cases.push_back({"LUD", "lud_block", {ludMatrix(rng, n)}, 0, 0,
                         [=](const std::vector<Addr> &va) {
                             Launches out;
                             for (std::uint64_t k = 0; k < n - 1; k += steps)
                                 out.push_back({va[0], n, k,
                                                std::min(k + steps, n - 1),
                                                2048});
                             return out;
                         }});
        cases.push_back({"LUD", "lud_block", {ludMatrix(rng, n)}, 0, 0,
                         [=](const std::vector<Addr> &va) {
                             return Launches{{va[0], n, 23, 23 + steps, 2048}};
                         }});
    }
    // LUD at sizes around the block of four, and at 255 and 257 in the
    // end-to-end 16 launches. Every launch's first block holds rows
    // i < k + 4.
    for (const std::uint64_t n : {3, 4, 5, 9, 255, 257}) {
        cases.push_back({"LUD", "lud_block", {ludMatrix(rng, n)}, 0, 0,
                         [=](const std::vector<Addr> &va) {
                             if (n < 16)
                                 return Launches{{va[0], n, 0, n, 2048},
                                                 {va[0], n, 1, n - 1, 2048}};
                             const std::uint64_t step = n / 16;
                             Launches out;
                             for (std::uint64_t s = 0; s < 16; ++s)
                                 out.push_back(
                                     {va[0], n, s * step,
                                      s + 1 == 16 ? n - 1 : (s + 1) * step,
                                      2048});
                             return out;
                         }});
    }
    return cases;
}

TEST(KernelReferenceTest, ProductionBodiesMatchReferenceBodies)
{
    std::vector<KernelCase> cases = referenceCases();
    for (const KernelCase &c : kernelCases()) {
        if (referenceKernel(c.kernel) && c.expect == StatusCode::Ok)
            cases.push_back(c);
    }
    gpu::GpuDevice device("gpu", gpu::GpuGeometry{}, gpu::GpuPerfModel{},
                          sim::PlatformConfig::paper());
    std::set<std::string> kernels;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const KernelCase &c = cases[i];
        SCOPED_TRACE(c.kernel + " case " + std::to_string(i));
        const gpu::KernelFn &fn = productionKernel(device, c);
        const gpu::KernelFn ref = referenceKernel(c.kernel);
        ASSERT_TRUE(ref) << "no reference body";
        kernels.insert(c.kernel);
        Placed p(c, Layout::Viewable);
        const Launches launches = c.launches(p.va);
        for (std::size_t l = 0; l < launches.size(); ++l) {
            const Status got = fn(p.fast, launches[l]);
            const Status want = ref(p.perPage, launches[l]);
            EXPECT_TRUE(want.isOk()) << "launch " << l << ": "
                                     << want.toString();
            EXPECT_EQ(got.toString(), want.toString()) << "launch " << l;
            ASSERT_TRUE(p.sameVram())
                << "launch " << l << ": VRAM differs from the reference";
        }
    }
    EXPECT_EQ(kernels.size(), 5u);
}

}  // namespace
}  // namespace hix::workloads
