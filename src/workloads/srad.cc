/**
 * @file
 * SRAD: speckle-reducing anisotropic diffusion over an ultrasound
 * image — two stencil kernels per iteration (coefficient, update).
 * Table 5: 24.23 MB HtoD / 24.19 MB DtoH, 3096x2048 points.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalRows = 3096;
constexpr std::uint32_t NominalCols = 2048;
constexpr std::uint64_t Scale = 16;  // functional 774x512
constexpr std::uint32_t Iterations = 16;
constexpr float Lambda = 0.5f;
constexpr std::uint64_t FuncRows = NominalRows / 4;
constexpr std::uint64_t FuncCols = NominalCols / 4;
constexpr double KernelNs = 68.0e6;

/** The speckled image and its mean and variance, which diffusion must
 *  roughly keep and strictly reduce. */
struct Fixture
{
    Bytes img;
    double mean = 0;
    double var = 0;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t cells = FuncRows * FuncCols;
        Rng rng(0x5ad);
        std::vector<float> img(cells);
        for (auto &v : img)
            v = static_cast<float>(rng.nextDouble()) + 0.5f;

        double mean_in = 0, var_in = 0;
        for (std::uint64_t i = 0; i < cells; ++i)
            mean_in += img[i];
        mean_in /= double(cells);
        for (std::uint64_t i = 0; i < cells; ++i)
            var_in += (img[i] - mean_in) * (img[i] - mean_in);
        return Fixture{vecBytes(img), mean_in, var_in};
    }();
    return f;
}

class Srad : public RodiniaApp
{
  public:
    Srad()
        : RodiniaApp("SRAD", Scale,
                     TransferSpec{(24 * MiB) + (236 * KiB),
                                  (24 * MiB) + (195 * KiB)})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("srad_coeff").isOk())
            return;
        device.kernels().add(
            "srad_coeff",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {img, coeff, rows, cols, nominal_cells}
                const std::uint64_t rows = args[2];
                const std::uint64_t cols = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({rows, cols}));
                return DeviceArrays(mem, arrayIn<float>(args[0], cells),
                                    arrayOut<float>(args[1], cells))
                    .run([&](std::span<const float> img,
                             std::span<float> c) {
                        for (std::uint64_t i = 0; i < rows; ++i) {
                            for (std::uint64_t j = 0; j < cols; ++j) {
                                const float v = img[i * cols + j];
                                const float up =
                                    i > 0 ? img[(i - 1) * cols + j] : v;
                                const float dn =
                                    i + 1 < rows ? img[(i + 1) * cols + j]
                                                 : v;
                                const float lt =
                                    j > 0 ? img[i * cols + j - 1] : v;
                                const float rt =
                                    j + 1 < cols ? img[i * cols + j + 1]
                                                 : v;
                                const float g2 = (up - v) * (up - v) +
                                                 (dn - v) * (dn - v) +
                                                 (lt - v) * (lt - v) +
                                                 (rt - v) * (rt - v);
                                c[i * cols + j] =
                                    1.0f / (1.0f + g2 / (v * v + 1e-6f));
                            }
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[4]) /
                    (double(NominalRows) * NominalCols);
                return calibratedKernelCost(KernelNs * 0.5, ratio,
                                            Iterations, Iterations);
            });
        device.kernels().add(
            "srad_update",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {img, coeff, rows, cols, nominal_cells}
                const std::uint64_t rows = args[2];
                const std::uint64_t cols = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                     checkedSize({rows, cols}));
                return DeviceArrays(mem, arrayInOut<float>(args[0], cells),
                                    arrayIn<float>(args[1], cells))
                    .run([&](std::span<float> img,
                             std::span<const float> c) {
                        // The update is in place, so the stencil reads
                        // the old rows i-1 and i from two row buffers;
                        // row i+1 is still untouched in img.
                        std::vector<float> above(cols), row(cols);
                        for (std::uint64_t i = 0; i < rows; ++i) {
                            std::copy_n(img.begin() + i * cols, cols,
                                        row.begin());
                            for (std::uint64_t j = 0; j < cols; ++j) {
                                const float v = row[j];
                                const float cd =
                                    i + 1 < rows ? c[(i + 1) * cols + j]
                                                 : c[i * cols + j];
                                const float cr =
                                    j + 1 < cols ? c[i * cols + j + 1]
                                                 : c[i * cols + j];
                                const float up = i > 0 ? above[j] : v;
                                const float dn =
                                    i + 1 < rows ? img[(i + 1) * cols + j]
                                                 : v;
                                const float lt = j > 0 ? row[j - 1] : v;
                                const float rt =
                                    j + 1 < cols ? row[j + 1] : v;
                                const float div =
                                    cd * (dn - v) +
                                    c[i * cols + j] * (up - v) +
                                    cr * (rt - v) +
                                    c[i * cols + j] * (lt - v);
                                img[i * cols + j] =
                                    v + 0.25f * Lambda * div;
                            }
                            above.swap(row);
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[4]) /
                    (double(NominalRows) * NominalCols);
                return calibratedKernelCost(KernelNs * 0.5, ratio,
                                            Iterations, Iterations);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t rows = FuncRows, cols = FuncCols;
        const std::uint64_t cells = rows * cols;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto k_coeff, api.loadModule("srad_coeff"));
        HIX_ASSIGN_OR_RETURN(auto k_update,
                             api.loadModule("srad_update"));
        HIX_ASSIGN_OR_RETURN(Addr d_img, api.memAlloc(cells * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_c, api.memAlloc(cells * 4));

        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_img, fx.img));
        HIX_RETURN_IF_ERROR(padHtoD(api, cells * 4));

        const std::uint64_t nominal_cells =
            std::uint64_t(NominalRows) * NominalCols;
        for (std::uint32_t it = 0; it < Iterations; ++it) {
            HIX_RETURN_IF_ERROR(api.launchKernel(
                k_coeff, {d_img, d_c, rows, cols, nominal_cells}));
            HIX_RETURN_IF_ERROR(api.launchKernel(
                k_update, {d_img, d_c, rows, cols, nominal_cells}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes out,
                             api.memcpyDtoH(d_img, cells * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, cells * 4));

        // Sanity-verify: diffusion keeps the rough mean and reduces
        // the speckle variance (a full 16-iteration CPU replay would
        // dominate test time). Written so that a NaN result fails.
        auto got = bytesVec<float>(out);
        double mean_out = 0, var_out = 0;
        for (std::uint64_t i = 0; i < cells; ++i)
            mean_out += got[i];
        mean_out /= double(cells);
        for (std::uint64_t i = 0; i < cells; ++i)
            var_out += (got[i] - mean_out) * (got[i] - mean_out);
        if (!(std::fabs(mean_out - fx.mean) <= 0.05))
            return errInternal("SRAD mean drifted");
        if (!(var_out < fx.var))
            return errInternal("SRAD did not reduce speckle variance");

        for (Addr va : {d_img, d_c})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeSrad()
{
    return std::make_unique<Srad>();
}

}  // namespace hix::workloads
