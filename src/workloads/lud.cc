/**
 * @file
 * LU Decomposition (LUD): in-place blocked LU factorization without
 * pivoting of a diagonally dominant matrix. Table 5: 16 MB HtoD /
 * 16 MB DtoH, 2048x2048 points.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalN = 2048;
constexpr std::uint64_t Scale = 64;  // functional 256x256
constexpr std::uint32_t BlockSteps = 16;
constexpr std::uint64_t FuncN = NominalN / 8;
constexpr double KernelNs = 20.0e6;

/** The matrix to factor, as uploaded and as the check reads it. */
struct Fixture
{
    Bytes a;
    std::vector<float> orig;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t n = FuncN;
        Rng rng(0x10d);
        std::vector<float> a(n * n);
        for (auto &v : a)
            v = static_cast<float>(rng.nextDouble() - 0.5);
        for (std::uint64_t i = 0; i < n; ++i)
            a[i * n + i] = static_cast<float>(n);
        return Fixture{vecBytes(a), std::move(a)};
    }();
    return f;
}

class Lud : public RodiniaApp
{
  public:
    Lud()
        : RodiniaApp("LUD", Scale, TransferSpec{16 * MiB, 16 * MiB})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("lud_block").isOk())
            return;
        device.kernels().add(
            "lud_block",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {a, n, k_begin, k_end, nominal_n}
                const std::uint64_t n = args[1];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({n, n}));
                return DeviceArrays(mem, arrayInOut<float>(args[0], cells))
                    .run([&](std::span<float> a) {
                        // Steps k >= n - 1 update nothing. The row
                        // update reads row k and writes row i through
                        // plain pointers, which the vectorizer streams;
                        // rows i != k never overlap.
                        const std::uint64_t k_end = std::min(args[3], n);
                        for (std::uint64_t k = args[2]; k < k_end; ++k) {
                            const float *ak = a.data() + k * n;
                            for (std::uint64_t i = k + 1; i < n; ++i) {
                                float *ai = a.data() + i * n;
                                ai[k] /= ak[k];
                                const float lik = ai[k];
                                for (std::uint64_t j = k + 1; j < n; ++j)
                                    ai[j] -= lik * ak[j];
                            }
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[4]) / NominalN;
                // Nominal launches: one per 16-wide block column.
                return calibratedKernelCost(
                    KernelNs * ratio * ratio * ratio, 1.0, BlockSteps,
                    NominalN / 16);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t n = FuncN;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("lud_block"));
        HIX_ASSIGN_OR_RETURN(Addr d_a, api.memAlloc(n * n * 4));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_a, fx.a));
        HIX_RETURN_IF_ERROR(padHtoD(api, n * n * 4));

        const std::uint64_t step = n / BlockSteps;
        for (std::uint32_t s = 0; s < BlockSteps; ++s) {
            const std::uint64_t k0 = s * step;
            const std::uint64_t k1 =
                s + 1 == BlockSteps ? n - 1 : (s + 1) * step;
            HIX_RETURN_IF_ERROR(
                api.launchKernel(kid, {d_a, n, k0, k1, NominalN}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes out, api.memcpyDtoH(d_a, n * n * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, n * n * 4));

        // Verify (L*U)[i][j] == orig[i][j] on sampled entries; a NaN
        // entry fails too.
        const ElementsOf<float> lu(out);
        Rng pick(5);
        for (int s = 0; s < 48; ++s) {
            const std::uint64_t i = pick.nextBelow(n);
            const std::uint64_t j = pick.nextBelow(n);
            // L has a unit diagonal; U is the upper triangle.
            double sum = 0;
            const std::uint64_t kmax = std::min(i, j);
            for (std::uint64_t k = 0; k <= kmax; ++k) {
                const double l = k < i ? double(lu[i * n + k]) : 1.0;
                const double u = double(lu[k * n + j]);
                sum += l * u;
            }
            if (!(std::fabs(sum - double(fx.orig[i * n + j])) <=
                  1e-2 * double(n)))
                return errInternal("LUD reconstruction mismatch");
        }

        HIX_RETURN_IF_ERROR(api.memFree(d_a));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeLud()
{
    return std::make_unique<Lud>();
}

}  // namespace hix::workloads
