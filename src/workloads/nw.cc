/**
 * @file
 * Needleman-Wunsch (NW): global sequence alignment by dynamic
 * programming over an (n+1)^2 score matrix, processed in block
 * anti-diagonals as Rodinia does. Table 5: 128.1 MB HtoD /
 * 64.03 MB DtoH, 4096x4096 points.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalN = 4096;
constexpr std::uint64_t Scale = 64;  // functional 512x512
constexpr std::uint32_t Block = 16;
constexpr std::int32_t Penalty = 10;
constexpr std::uint64_t FuncN = NominalN / 8;
constexpr double KernelNs = 53.0e6;

/** The initial score matrix, the substitution scores, and the CPU
 *  reference's final score and 64 sampled cells. */
struct Fixture
{
    Bytes score;
    Bytes ref;
    Expected<std::int32_t> finalScore;
    std::vector<Expected<std::int32_t>> samples;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t n = FuncN;
        const std::uint64_t w = n + 1;
        Rng rng(0x714);
        std::vector<std::int32_t> ref(n * n);
        for (auto &v : ref)
            v = static_cast<std::int32_t>(rng.nextBelow(21)) - 10;

        std::vector<std::int32_t> score(w * w, 0);
        for (std::uint64_t i = 0; i < w; ++i) {
            score[i * w] = -static_cast<std::int32_t>(i) * Penalty;
            score[i] = -static_cast<std::int32_t>(i) * Penalty;
        }

        // Full CPU DP reference.
        std::vector<std::int32_t> cpu = score;
        for (std::uint64_t i = 1; i < w; ++i) {
            for (std::uint64_t j = 1; j < w; ++j) {
                const std::int32_t match =
                    cpu[(i - 1) * w + j - 1] + ref[(i - 1) * n + j - 1];
                const std::int32_t del = cpu[(i - 1) * w + j] - Penalty;
                const std::int32_t ins = cpu[i * w + j - 1] - Penalty;
                cpu[i * w + j] = std::max(match, std::max(del, ins));
            }
        }
        Fixture out{vecBytes(score), vecBytes(ref),
                    {n * w + n, cpu[n * w + n]}, {}};
        Rng pick(9);
        for (int s = 0; s < 64; ++s) {
            const std::uint64_t i = 1 + pick.nextBelow(n);
            const std::uint64_t j = 1 + pick.nextBelow(n);
            out.samples.push_back({i * w + j, cpu[i * w + j]});
        }
        return out;
    }();
    return f;
}

class NeedlemanWunsch : public RodiniaApp
{
  public:
    NeedlemanWunsch()
        : RodiniaApp("NW", Scale,
                     TransferSpec{(128 * MiB) + (102 * KiB),
                                  (64 * MiB) + (31 * KiB)})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("nw_diag").isOk())
            return;
        device.kernels().add(
            "nw_diag",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {score, ref, n, diag, nominal_n}
                // Processes every Block x Block tile on block
                // anti-diagonal `diag` (cells in DP order inside).
                const std::uint64_t n = args[2];
                const std::uint64_t diag = args[3];
                const std::uint64_t blocks = n / Block;
                HIX_ASSIGN_OR_RETURN(const std::uint64_t w,
                                     checkedSize({n}, 1));
                HIX_ASSIGN_OR_RETURN(const std::uint64_t score_cells,
                                     checkedSize({w, w}));
                HIX_ASSIGN_OR_RETURN(const std::uint64_t ref_cells,
                                     checkedSize({n, n}));
                return DeviceArrays(
                           mem,
                           arrayInOut<std::int32_t>(args[0], score_cells),
                           arrayIn<std::int32_t>(args[1], ref_cells))
                    .run([&](std::span<std::int32_t> score,
                             std::span<const std::int32_t> ref) {
                        for (std::uint64_t bi = 0; bi < blocks; ++bi) {
                            const std::uint64_t bj = diag - bi;
                            if (bj >= blocks)
                                continue;  // wrapped: off this diagonal
                            for (std::uint64_t i = bi * Block + 1;
                                 i <= (bi + 1) * Block; ++i) {
                                for (std::uint64_t j = bj * Block + 1;
                                     j <= (bj + 1) * Block; ++j) {
                                    const std::int32_t match =
                                        score[(i - 1) * w + j - 1] +
                                        ref[(i - 1) * n + j - 1];
                                    const std::int32_t del =
                                        score[(i - 1) * w + j] - Penalty;
                                    const std::int32_t ins =
                                        score[i * w + j - 1] - Penalty;
                                    score[i * w + j] =
                                        std::max(match, std::max(del, ins));
                                }
                            }
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const std::uint64_t n = args[2];
                const std::uint64_t nominal = args[4];
                const double ratio = (double(nominal) / NominalN) *
                                     (double(nominal) / NominalN);
                const std::uint64_t launches_func = 2 * (n / Block) - 1;
                const std::uint64_t launches_nom =
                    2 * (nominal / Block) - 1;
                return calibratedKernelCost(KernelNs, ratio,
                                            launches_func,
                                            launches_nom);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t n = FuncN;
        const std::uint64_t w = n + 1;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("nw_diag"));
        HIX_ASSIGN_OR_RETURN(Addr d_score, api.memAlloc(w * w * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_ref, api.memAlloc(n * n * 4));

        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_score, fx.score));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_ref, fx.ref));
        HIX_RETURN_IF_ERROR(padHtoD(api, (w * w + n * n) * 4));

        const std::uint64_t blocks = n / Block;
        for (std::uint64_t diag = 0; diag < 2 * blocks - 1; ++diag) {
            HIX_RETURN_IF_ERROR(api.launchKernel(
                kid, {d_score, d_ref, n, diag, NominalN}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes out,
                             api.memcpyDtoH(d_score, w * w * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, w * w * 4));

        const ElementsOf<std::int32_t> got(out);
        if (got[fx.finalScore.index] != fx.finalScore.value)
            return errInternal("NW final score mismatch");
        for (const auto &e : fx.samples) {
            if (got[e.index] != e.value)
                return errInternal("NW cell mismatch");
        }

        for (Addr va : {d_score, d_ref})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeNeedlemanWunsch()
{
    return std::make_unique<NeedlemanWunsch>();
}

}  // namespace hix::workloads
