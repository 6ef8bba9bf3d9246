/**
 * @file
 * Pathfinder (PF): bottom-up dynamic programming for the cheapest
 * path through a weight grid, one kernel per row band. Table 5:
 * 256 MB HtoD / 32 KB DtoH, 8192x8192 points — the most
 * transfer-dominated app and HIX's worst case (+154% in the paper).
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalN = 8192;
constexpr std::uint64_t Scale = 16;  // functional 2048x2048
constexpr std::uint64_t FuncN = NominalN / 4;
constexpr std::uint32_t Bands = 8;
constexpr double KernelNs = 2.5e6;

/** The weight grid, its first row (the initial cost vector) and the
 *  CPU reference's final cost row. */
struct Fixture
{
    Bytes grid;
    Bytes firstRow;
    std::vector<std::int32_t> cost;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t n = FuncN;
        Rng rng(0x9f);
        std::vector<std::int32_t> grid(n * n);
        for (auto &v : grid)
            v = static_cast<std::int32_t>(rng.nextBelow(10));

        std::vector<std::int32_t> ref(grid.begin(), grid.begin() + n);
        Fixture out{vecBytes(grid), vecBytes(ref), {}};
        std::vector<std::int32_t> next(n);
        for (std::uint64_t r = 1; r < n; ++r) {
            for (std::uint64_t j = 0; j < n; ++j) {
                std::int32_t best = ref[j];
                if (j > 0)
                    best = std::min(best, ref[j - 1]);
                if (j + 1 < n)
                    best = std::min(best, ref[j + 1]);
                next[j] = grid[r * n + j] + best;
            }
            ref.swap(next);
        }
        out.cost = std::move(ref);
        return out;
    }();
    return f;
}

class Pathfinder : public RodiniaApp
{
  public:
    Pathfinder()
        : RodiniaApp("PF", Scale, TransferSpec{256 * MiB, 32 * KiB})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("pf_band").isOk())
            return;
        device.kernels().add(
            "pf_band",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {grid, cost_row, n, row_begin, row_end,
                //        nominal_n}
                // The band is grid rows [row_begin, row_end).
                const std::uint64_t n = args[2];
                const std::uint64_t rows =
                    args[4] > args[3] ? args[4] - args[3] : 0;
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({rows, n}));
                HIX_ASSIGN_OR_RETURN(const Addr band_va,
                                     checkedSize({args[3], n, 4}, args[0]));
                return DeviceArrays(
                           mem, arrayInOut<std::int32_t>(args[1], n),
                           arrayIn<std::int32_t>(band_va, cells))
                    .run([&](std::span<std::int32_t> cost,
                             std::span<const std::int32_t> band) {
                        if (n == 0)
                            return;
                        // Each row reads a copy of the previous one,
                        // so no value carries from one j to the next
                        // and the loop vectorizes.
                        std::vector<std::int32_t> prev(n);
                        for (std::uint64_t r = 0; r < rows; ++r) {
                            std::copy(cost.begin(), cost.end(),
                                      prev.begin());
                            const std::int32_t *w = band.data() + r * n;
                            if (n == 1) {
                                cost[0] = wrappingAdd(w[0], prev[0]);
                                continue;
                            }
                            cost[0] = wrappingAdd(
                                w[0], std::min(prev[0], prev[1]));
                            for (std::uint64_t j = 1; j + 1 < n; ++j)
                                cost[j] = wrappingAdd(
                                    w[j],
                                    std::min(prev[j - 1],
                                             std::min(prev[j],
                                                      prev[j + 1])));
                            cost[n - 1] = wrappingAdd(
                                w[n - 1],
                                std::min(prev[n - 2], prev[n - 1]));
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double nominal = static_cast<double>(args[5]);
                const double ratio =
                    (nominal / NominalN) * (nominal / NominalN);
                return calibratedKernelCost(KernelNs, ratio, Bands,
                                            Bands);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t n = FuncN;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("pf_band"));
        HIX_ASSIGN_OR_RETURN(Addr d_grid, api.memAlloc(n * n * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_cost, api.memAlloc(n * 4));

        // First row seeds the cost vector.
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_grid, fx.grid));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_cost, fx.firstRow));
        HIX_RETURN_IF_ERROR(padHtoD(api, (n * n + n) * 4));

        const std::uint64_t band = (n - 1) / Bands + 1;
        for (std::uint32_t b = 0; b < Bands; ++b) {
            const std::uint64_t r0 = 1 + b * band;
            const std::uint64_t r1 = std::min<std::uint64_t>(
                n, 1 + (b + 1) * band);
            if (r0 >= n)
                break;
            HIX_RETURN_IF_ERROR(api.launchKernel(
                kid, {d_grid, d_cost, n, r0, r1, NominalN}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes out, api.memcpyDtoH(d_cost, n * 4));
        auto got = bytesVec<std::int32_t>(out);
        for (std::uint64_t j = 0; j < n; ++j) {
            if (got[j] != fx.cost[j])
                return errInternal("PF cost mismatch");
        }

        for (Addr va : {d_grid, d_cost})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makePathfinder()
{
    return std::make_unique<Pathfinder>();
}

}  // namespace hix::workloads
