/**
 * @file
 * Differential wall for kernel device arrays. Every registered kernel
 * is launched twice on identical VRAM images: once through the
 * default accessor, where DeviceArrays lends VRAM views, and once
 * through GpuMemAccessor::perPage(), which forces the per-page copy
 * path (loadArray/storeArray). The two launches must return the same
 * Status and leave byte-identical VRAM. Each layout is run in every
 * kernel: all arrays viewable, a non-contiguous map, misaligned
 * arrays, an input overlapping a written array, and a partially
 * mapped written array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpu/gpu_context.h"
#include "gpu/gpu_device.h"
#include "workloads/rodinia_util.h"

namespace hix::workloads
{
namespace
{

constexpr std::uint64_t VramSize = 8 * MiB;
constexpr Addr VaBase = 0x10000000;
constexpr Addr PaBase = 1 * MiB;

/** One kernel, the device buffers it takes and its argument list. */
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
    std::function<gpu::KernelArgs(const std::vector<Addr> &)> args;
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
                             return gpu::KernelArgs{va[0], va[1], va[2], in,
                                                    589824};
                         }});
        cases.push_back({"BP", "bp_adjust_weights",
                         {input, w1,
                          vecBytes(randomFloats(rng, hidden, -1, 1))},
                         0, 1, [=](const std::vector<Addr> &va) {
                             return gpu::KernelArgs{va[0], va[1], va[2], in,
                                                    589824};
                         }});
    }
    // BFS: a random CSR graph. Levels are 0/1 in the first 64 nodes,
    // so the overlap layout (rows' tail aliasing the level array's
    // head) leaves only empty or in-range edge loops.
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
        cases.push_back({"BFS", "bfs_level",
                         {vecBytes(rows), vecBytes(edges), vecBytes(level)}, 0,
                         2, [=](const std::vector<Addr> &va) {
                             return gpu::KernelArgs{va[0], va[1], va[2], n,
                                                    n * degree, 1, 1000000,
                                                    8};
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
                             return gpu::KernelArgs{va[0], va[1], n, 3, 2048};
                         }});
        cases.push_back({"GS", "gs_fan2", {a, b, m}, 2, 0,
                         [=](const std::vector<Addr> &va) {
                             return gpu::KernelArgs{va[0], va[1], va[2], n, 3,
                                                    2048};
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
                             return gpu::KernelArgs{va[0], va[1], va[2], n,
                                                    1024};
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
                             return gpu::KernelArgs{va[0], n, 0, 16, 2048};
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
                             return gpu::KernelArgs{va[0], va[1], count,
                                                    lat_bits, lng_bits};
                         }});
    }
    // NW: a 64 x 64 alignment, block anti-diagonal 2.
    {
        const std::uint64_t n = 64;
        cases.push_back({"NW", "nw_diag",
                         {vecBytes(randomInts(rng, (n + 1) * (n + 1), 50)),
                          vecBytes(randomInts(rng, n * n, 20))},
                         1, 0, [=](const std::vector<Addr> &va) {
                             return gpu::KernelArgs{va[0], va[1], n, 2, 4096};
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
                             return gpu::KernelArgs{va[0], va[1], n, 4, 20,
                                                    8192};
                         }});
    }
    // SRAD: a 40 x 48 image.
    {
        const std::uint64_t rows = 40, cols = 48;
        auto img = vecBytes(randomFloats(rng, rows * cols, 0.5f, 1.5f));
        auto c = vecBytes(randomFloats(rng, rows * cols, 0, 1));
        auto args = [=](const std::vector<Addr> &va) {
            return gpu::KernelArgs{va[0], va[1], rows, cols, 6340608};
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
                             return gpu::KernelArgs{va[0], va[1], va[2], nf,
                                                    1024};
                         }});
        const std::uint64_t nm = 32;
        cases.push_back({"MMUL", "matrix_mul_u32",
                         {u32(nm * nm), u32(nm * nm), u32(nm * nm)}, 0, 2,
                         [=](const std::vector<Addr> &va) {
                             return gpu::KernelArgs{va[0], va[1], va[2], nm,
                                                    1024};
                         }});
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

void
runLayout(Layout layout)
{
    gpu::GpuDevice device("gpu", gpu::GpuGeometry{}, gpu::GpuPerfModel{},
                          sim::PlatformConfig::paper());
    for (const KernelCase &c : kernelCases()) {
        SCOPED_TRACE(c.kernel);
        makeWorkload(c.workload)->registerKernels(device);
        auto id = device.kernels().idOf(c.kernel);
        ASSERT_TRUE(id.isOk());
        const gpu::KernelFn &fn = device.kernels().find(*id)->fn;

        gpu::GpuContext ctx(1);
        const std::vector<Addr> va = place(c, layout, ctx);
        mem::PhysMem views("views", VramSize);
        mem::PhysMem oracle("oracle", VramSize);
        const gpu::GpuMemAccessor fast(&ctx, &views);
        const gpu::GpuMemAccessor per_page =
            gpu::GpuMemAccessor::perPage(&ctx, &oracle);
        for (std::size_t i = 0; i < va.size(); ++i) {
            const Bytes &buf = c.buffers[i];
            // A partially mapped buffer fills only up to its hole,
            // identically on both sides.
            (void)fast.write(va[i], buf.data(), buf.size());
            (void)per_page.write(va[i], buf.data(), buf.size());
        }

        const gpu::KernelArgs args = c.args(va);
        const Status got = fn(fast, args);
        const Status want = fn(per_page, args);
        EXPECT_EQ(got.toString(), want.toString());
        if (layout == Layout::PartialOutput)
            EXPECT_EQ(want.code(), StatusCode::AccessFault);
        else
            EXPECT_TRUE(want.isOk()) << want.toString();

        Bytes a(VramSize), b(VramSize);
        ASSERT_TRUE(views.readAt(0, a.data(), a.size()).isOk());
        ASSERT_TRUE(oracle.readAt(0, b.data(), b.size()).isOk());
        EXPECT_TRUE(a == b) << "VRAM differs from the per-page oracle";
        if (layout == Layout::Viewable) {
            // The launch did change VRAM: the comparison is not
            // between two untouched images.
            Bytes before(VramSize);
            mem::PhysMem fresh("fresh", VramSize);
            const gpu::GpuMemAccessor init(&ctx, &fresh);
            for (std::size_t i = 0; i < va.size(); ++i)
                ASSERT_TRUE(init.write(va[i], c.buffers[i].data(),
                                       c.buffers[i].size())
                                .isOk());
            ASSERT_TRUE(fresh.readAt(0, before.data(), VramSize).isOk());
            EXPECT_FALSE(a == before);
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

}  // namespace
}  // namespace hix::workloads
