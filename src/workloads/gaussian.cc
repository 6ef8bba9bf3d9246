/**
 * @file
 * Gaussian Elimination (GS): forward elimination with the Rodinia
 * Fan1/Fan2 kernel pair, two launches per pivot step. Table 5:
 * 32 MB HtoD / 32 MB DtoH, 2048x2048 points. High
 * compute-to-communication ratio: the paper's example of HIX
 * reaching parity with Gdev.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalN = 2048;
constexpr std::uint64_t Scale = 64;  // functional 256x256
constexpr std::uint64_t FuncN = NominalN / 8;
constexpr double KernelNs = 320.0e6;

/** The system A x = b, the zeroed multiplier matrix, and the known
 *  solution the host back-substitution must recover. */
struct Fixture
{
    Bytes a;
    Bytes b;
    Bytes m;
    std::vector<float> xRef;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t n = FuncN;
        // Diagonally dominant system => stable elimination.
        Rng rng(0x6a);
        std::vector<float> a(n * n), b(n), x_ref(n);
        for (auto &v : a)
            v = static_cast<float>(rng.nextDouble() - 0.5);
        for (std::uint64_t i = 0; i < n; ++i)
            a[i * n + i] = static_cast<float>(n) + 1.0f;
        for (auto &v : x_ref)
            v = static_cast<float>(rng.nextDouble() * 2 - 1);
        for (std::uint64_t i = 0; i < n; ++i) {
            double sum = 0;
            for (std::uint64_t j = 0; j < n; ++j)
                sum += double(a[i * n + j]) * x_ref[j];
            b[i] = static_cast<float>(sum);
        }
        return Fixture{vecBytes(a), vecBytes(b), Bytes(n * n * 4),
                       std::move(x_ref)};
    }();
    return f;
}

class Gaussian : public RodiniaApp
{
  public:
    Gaussian()
        : RodiniaApp("GS", Scale, TransferSpec{32 * MiB, 32 * MiB})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("gs_fan1").isOk())
            return;
        // Cost split: Fan2 does the O(n^2) submatrix update and
        // dominates; Fan1 is the O(n) multiplier column.
        device.kernels().add(
            "gs_fan1",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {a, m, n, t, nominal_n}
                const std::uint64_t n = args[2];
                const std::uint64_t t = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({n, n}));
                return DeviceArrays(mem, arrayIn<float>(args[0], cells),
                                    arrayInOut<float>(args[1], cells))
                    .run([&](std::span<const float> a,
                             std::span<float> m) {
                        // Steps t >= n - 1 update nothing; t + 1
                        // would wrap to row 0 for the last uint64.
                        if (t >= n)
                            return;
                        for (std::uint64_t i = t + 1; i < n; ++i)
                            m[i * n + t] = a[i * n + t] / a[t * n + t];
                    });
            },
            [](const gpu::KernelArgs &args) {
                const std::uint64_t n = args[2];
                const std::uint64_t nominal = args[4];
                const double ratio =
                    static_cast<double>(nominal) / NominalN;
                return calibratedKernelCost(
                    KernelNs * 0.1 * ratio * ratio * ratio, 1.0, n - 1,
                    nominal - 1);
            });
        device.kernels().add(
            "gs_fan2",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {a, b, m, n, t, nominal_n}
                const std::uint64_t n = args[3];
                const std::uint64_t t = args[4];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({n, n}));
                return DeviceArrays(mem, arrayInOut<float>(args[0], cells),
                                    arrayInOut<float>(args[1], n),
                                    arrayIn<float>(args[2], cells))
                    .run([&](std::span<float> a, std::span<float> b,
                             std::span<const float> m) {
                        if (t >= n)
                            return;  // as in gs_fan1
                        for (std::uint64_t i = t + 1; i < n; ++i) {
                            const float mult = m[i * n + t];
                            for (std::uint64_t j = t; j < n; ++j)
                                a[i * n + j] -= mult * a[t * n + j];
                            b[i] -= mult * b[t];
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const std::uint64_t n = args[3];
                const std::uint64_t nominal = args[5];
                const double ratio =
                    static_cast<double>(nominal) / NominalN;
                return calibratedKernelCost(
                    KernelNs * 0.9 * ratio * ratio * ratio, 1.0, n - 1,
                    nominal - 1);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t n = FuncN;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto k_fan1, api.loadModule("gs_fan1"));
        HIX_ASSIGN_OR_RETURN(auto k_fan2, api.loadModule("gs_fan2"));
        HIX_ASSIGN_OR_RETURN(Addr d_a, api.memAlloc(n * n * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_b, api.memAlloc(n * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_m, api.memAlloc(n * n * 4));

        std::uint64_t h2d = 0;
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_a, fx.a));
        h2d += fx.a.size();
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_b, fx.b));
        h2d += fx.b.size();
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_m, fx.m));
        h2d += fx.m.size();
        HIX_RETURN_IF_ERROR(padHtoD(api, h2d));

        for (std::uint64_t t = 0; t < n - 1; ++t) {
            HIX_RETURN_IF_ERROR(
                api.launchKernel(k_fan1, {d_a, d_m, n, t, NominalN}));
            HIX_RETURN_IF_ERROR(api.launchKernel(
                k_fan2, {d_a, d_b, d_m, n, t, NominalN}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes a_out,
                             api.memcpyDtoH(d_a, n * n * 4));
        HIX_ASSIGN_OR_RETURN(Bytes b_out, api.memcpyDtoH(d_b, n * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, a_out.size() + b_out.size()));

        // Back-substitute on the host and compare to the known
        // solution (written so that a NaN result fails too).
        const ElementsOf<float> u(a_out);
        const ElementsOf<float> y(b_out);
        std::vector<double> x(n);
        for (std::int64_t i = n - 1; i >= 0; --i) {
            double sum = y[i];
            for (std::uint64_t j = i + 1; j < n; ++j)
                sum -= double(u[i * n + j]) * x[j];
            x[i] = sum / u[i * n + i];
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!(std::fabs(x[i] - fx.xRef[i]) <= 1e-2))
                return errInternal("GS solution mismatch");
        }

        for (Addr va : {d_a, d_b, d_m})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeGaussian()
{
    return std::make_unique<Gaussian>();
}

}  // namespace hix::workloads
