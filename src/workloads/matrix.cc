/**
 * @file
 * Matrix microbenchmarks of Section 5.3.1 (Figure 6 / Table 4):
 * integer matrix addition and multiplication. HtoD moves A and B,
 * DtoH moves C, matching Table 4's data volumes.
 */

#include <cmath>
#include <utility>

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

/** The operands A and B and the expected C the check compares. */
struct Fixture
{
    Bytes a;
    Bytes b;
    /** Add: every entry of C. */
    std::vector<std::uint32_t> sum;
    /** Multiply: 32 sampled entries of C. */
    std::vector<Expected<std::uint32_t>> samples;
};

Fixture
buildFixture(std::uint32_t n, std::uint64_t nf, bool multiply)
{
    const std::uint64_t elems = nf * nf;
    Rng rng(0x9a7e + n);
    std::vector<std::uint32_t> a(elems), b(elems);
    for (auto &v : a)
        v = rng.next32() & 0xffff;
    for (auto &v : b)
        v = rng.next32() & 0xffff;

    Fixture out{vecBytes(a), vecBytes(b), {}, {}};
    if (!multiply) {
        out.sum.resize(elems);
        for (std::size_t i = 0; i < elems; ++i)
            out.sum[i] = a[i] + b[i];
    } else {
        Rng pick(7);
        for (int s = 0; s < 32; ++s) {
            const std::uint64_t i = pick.nextBelow(nf);
            const std::uint64_t j = pick.nextBelow(nf);
            std::uint32_t ref = 0;
            for (std::uint64_t k = 0; k < nf; ++k)
                ref += a[i * nf + k] * b[k * nf + j];
            out.samples.push_back({i * nf + j, ref});
        }
    }
    return out;
}

/** Shared host-side driver for both matrix workloads. */
class MatrixWorkload : public Workload
{
  public:
    MatrixWorkload(std::string name, std::uint32_t n, bool multiply,
                   std::uint64_t scale)
        : Workload(std::move(name)),
          n_(n),
          multiply_(multiply),
          scale_(scale)
    {
        const auto root = static_cast<std::uint32_t>(
            std::llround(std::sqrt(double(scale))));
        if (root * root != scale)
            hix_panic("matrix workload scale must be a perfect square");
        nf_ = n_ / root;
        if (nf_ == 0 || n_ % root != 0)
            hix_panic("matrix dimension not divisible by sqrt(scale)");
    }

    std::uint64_t timingScale() const override { return scale_; }

    TransferSpec
    nominalTransfers() const override
    {
        const std::uint64_t mat = std::uint64_t(n_) * n_ * 4;
        return TransferSpec{2 * mat, mat};
    }

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf(kernelName()).isOk())
            return;
        const gpu::GpuPerfModel perf = device.perf();
        if (!multiply_) {
            device.kernels().add(
                "matrix_add_u32",
                [](const gpu::GpuMemAccessor &mem,
                   const gpu::KernelArgs &args) -> Status {
                    // args: {a, b, c, n_func, n_nominal}
                    const std::uint64_t nf = args[3];
                    HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                         checkedSize({nf, nf}));
                    return DeviceArrays(
                               mem, arrayIn<std::uint32_t>(args[0], cells),
                               arrayIn<std::uint32_t>(args[1], cells),
                               arrayOut<std::uint32_t>(args[2], cells))
                        .run([](std::span<const std::uint32_t> a,
                                std::span<const std::uint32_t> b,
                                std::span<std::uint32_t> c) {
                            for (std::size_t i = 0; i < c.size(); ++i)
                                c[i] = a[i] + b[i];
                        });
                },
                [perf](const gpu::KernelArgs &args) {
                    // Streaming kernel: 3 matrices through memory.
                    const double n = static_cast<double>(args[4]);
                    return perf.intKernelTicks(n * n, 12.0 * n * n);
                });
        } else {
            device.kernels().add(
                "matrix_mul_u32",
                [](const gpu::GpuMemAccessor &mem,
                   const gpu::KernelArgs &args) -> Status {
                    const std::uint64_t nf = args[3];
                    HIX_ASSIGN_OR_RETURN(const std::uint64_t cells,
                                         checkedSize({nf, nf}));
                    return DeviceArrays(
                               mem, arrayIn<std::uint32_t>(args[0], cells),
                               arrayIn<std::uint32_t>(args[1], cells),
                               arrayOut<std::uint32_t>(args[2], cells))
                        .run([&](std::span<const std::uint32_t> a,
                                 std::span<const std::uint32_t> b,
                                 std::span<std::uint32_t> c) {
                            for (std::uint64_t i = 0; i < nf; ++i) {
                                for (std::uint64_t k = 0; k < nf; ++k) {
                                    const std::uint32_t aik = a[i * nf + k];
                                    for (std::uint64_t j = 0; j < nf; ++j)
                                        c[i * nf + j] +=
                                            aik * b[k * nf + j];
                                }
                            }
                        });
                },
                [perf](const gpu::KernelArgs &args) {
                    // 2*n^3 integer multiply-adds; Fermi 32-bit IMAD
                    // sustains ~40% of the FP32 pipe on this pattern.
                    const double n = static_cast<double>(args[4]);
                    const double ops = 2.0 * n * n * n;
                    const double rate =
                        perf.peakFp32Gflops * 1e9 * perf.intRate * 0.4;
                    return static_cast<Tick>(
                               ops / rate * double(SEC)) +
                           1;
                });
        }
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t elems = std::uint64_t(nf_) * nf_;
        // Keyed by (multiply, n): n fixes both the seed and nf.
        static FixtureCache<std::pair<bool, std::uint32_t>, Fixture>
            fixtures;
        const Fixture &fx =
            fixtures.get({multiply_, n_}, [this] {
                return buildFixture(n_, nf_, multiply_);
            });

        auto kid = api.loadModule(kernelName());
        if (!kid.isOk())
            return kid.status();

        HIX_ASSIGN_OR_RETURN(Addr va_a, api.memAlloc(elems * 4));
        HIX_ASSIGN_OR_RETURN(Addr va_b, api.memAlloc(elems * 4));
        HIX_ASSIGN_OR_RETURN(Addr va_c, api.memAlloc(elems * 4));

        HIX_RETURN_IF_ERROR(api.memcpyHtoD(va_a, fx.a));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(va_b, fx.b));
        HIX_RETURN_IF_ERROR(api.launchKernel(
            *kid, {va_a, va_b, va_c, nf_, n_}));
        HIX_ASSIGN_OR_RETURN(Bytes c_bytes,
                             api.memcpyDtoH(va_c, elems * 4));

        // Verify against a CPU reference (sampled for multiply).
        auto c = bytesVec<std::uint32_t>(c_bytes);
        if (!multiply_) {
            for (std::size_t i = 0; i < elems; ++i) {
                if (c[i] != fx.sum[i])
                    return errInternal("matrix add mismatch");
            }
        } else {
            for (const auto &e : fx.samples) {
                if (c[e.index] != e.value)
                    return errInternal("matrix mul mismatch");
            }
        }

        HIX_RETURN_IF_ERROR(api.memFree(va_a));
        HIX_RETURN_IF_ERROR(api.memFree(va_b));
        HIX_RETURN_IF_ERROR(api.memFree(va_c));
        return Status::ok();
    }

  private:
    const char *
    kernelName() const
    {
        return multiply_ ? "matrix_mul_u32" : "matrix_add_u32";
    }

    std::uint32_t n_;
    bool multiply_;
    std::uint64_t scale_;
    std::uint32_t nf_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
makeMatrixAdd(std::uint32_t n)
{
    return std::make_unique<MatrixWorkload>(
        "matrix_add_" + std::to_string(n), n, false, /*scale=*/64);
}

std::unique_ptr<Workload>
makeMatrixMul(std::uint32_t n)
{
    return std::make_unique<MatrixWorkload>(
        "matrix_mul_" + std::to_string(n), n, true, /*scale=*/1024);
}

}  // namespace hix::workloads
