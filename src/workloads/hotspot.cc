/**
 * @file
 * Hotspot (HS): transient thermal simulation — an iterative 5-point
 * stencil over temperature and power grids. Table 5: 8 MB HtoD /
 * 4 MB DtoH, 1024x1024 points. Small transfers, so the paper shows
 * HIX slightly *faster* than Gdev here thanks to cheaper task init.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalN = 1024;
constexpr std::uint64_t Scale = 16;  // functional 256x256
constexpr std::uint32_t Iterations = 60;
constexpr std::uint64_t FuncN = NominalN / 4;
constexpr double KernelNs = 69.0e6;

/** The temperature and power grids and the CPU reference's grid
 *  after all iterations. */
struct Fixture
{
    Bytes temp;
    Bytes power;
    std::vector<float> ref;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t n = FuncN;
        Rng rng(0x407);
        std::vector<float> temp(n * n), power(n * n);
        for (auto &v : temp)
            v = 320.0f + static_cast<float>(rng.nextDouble()) * 20.0f;
        for (auto &v : power)
            v = static_cast<float>(rng.nextDouble()) * 0.5f;

        std::vector<float> ref = temp, next(n * n);
        for (std::uint32_t it = 0; it < Iterations; ++it) {
            for (std::uint64_t i = 0; i < n; ++i) {
                for (std::uint64_t j = 0; j < n; ++j) {
                    const float t = ref[i * n + j];
                    const float up = i > 0 ? ref[(i - 1) * n + j] : t;
                    const float down =
                        i + 1 < n ? ref[(i + 1) * n + j] : t;
                    const float left = j > 0 ? ref[i * n + j - 1] : t;
                    const float right =
                        j + 1 < n ? ref[i * n + j + 1] : t;
                    next[i * n + j] =
                        t + 0.05f * (up + down + left + right -
                                     4.0f * t + power[i * n + j]);
                }
            }
            ref.swap(next);
        }
        return Fixture{vecBytes(temp), vecBytes(power), std::move(ref)};
    }();
    return f;
}

class Hotspot : public RodiniaApp
{
  public:
    Hotspot()
        : RodiniaApp("HS", Scale, TransferSpec{8 * MiB, 4 * MiB})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("hs_step").isOk())
            return;
        device.kernels().add(
            "hs_step",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {temp_in, power, temp_out, n, nominal_n}
                const std::uint64_t n = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({n, n}));
                return DeviceArrays(mem, arrayIn<float>(args[0], cells),
                                    arrayIn<float>(args[1], cells),
                                    arrayOut<float>(args[2], cells))
                    .run([&](std::span<const float> temp,
                             std::span<const float> power,
                             std::span<float> out) {
                        const float c = 0.05f;
                        for (std::uint64_t i = 0; i < n; ++i) {
                            for (std::uint64_t j = 0; j < n; ++j) {
                                const float t = temp[i * n + j];
                                const float up =
                                    i > 0 ? temp[(i - 1) * n + j] : t;
                                const float down =
                                    i + 1 < n ? temp[(i + 1) * n + j] : t;
                                const float left =
                                    j > 0 ? temp[i * n + j - 1] : t;
                                const float right =
                                    j + 1 < n ? temp[i * n + j + 1] : t;
                                out[i * n + j] =
                                    t + c * (up + down + left + right -
                                             4.0f * t + power[i * n + j]);
                            }
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double nominal = static_cast<double>(args[4]);
                const double ratio =
                    (nominal / NominalN) * (nominal / NominalN);
                return calibratedKernelCost(KernelNs, ratio,
                                            Iterations, Iterations);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t n = FuncN;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("hs_step"));
        HIX_ASSIGN_OR_RETURN(Addr d_a, api.memAlloc(n * n * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_p, api.memAlloc(n * n * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_b, api.memAlloc(n * n * 4));

        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_a, fx.temp));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_p, fx.power));
        HIX_RETURN_IF_ERROR(padHtoD(api, 2 * n * n * 4));

        Addr src = d_a, dst = d_b;
        for (std::uint32_t it = 0; it < Iterations; ++it) {
            HIX_RETURN_IF_ERROR(api.launchKernel(
                kid, {src, d_p, dst, n, NominalN}));
            std::swap(src, dst);
        }

        HIX_ASSIGN_OR_RETURN(Bytes out, api.memcpyDtoH(src, n * n * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, n * n * 4));

        // Compare with the CPU reference; a NaN cell fails too.
        auto got = bytesVec<float>(out);
        for (std::uint64_t i = 0; i < n * n; ++i) {
            if (!(std::fabs(got[i] - fx.ref[i]) <= 1e-2f))
                return errInternal("HS grid mismatch");
        }

        for (Addr va : {d_a, d_p, d_b})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeHotspot()
{
    return std::make_unique<Hotspot>();
}

}  // namespace hix::workloads
