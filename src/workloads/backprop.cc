/**
 * @file
 * Back Propagation (BP): one epoch of a two-layer perceptron, the
 * Rodinia backprop pattern — a layer-forward reduction and a weight
 * adjustment, both memory-bound over the (huge) input->hidden weight
 * matrix. Table 5: 117.0 MB HtoD / 42.75 MB DtoH, 589,824 input
 * nodes.
 */

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalIn = 589824;
constexpr std::uint32_t Hidden = 16;
constexpr std::uint64_t Scale = 16;
constexpr std::uint64_t FuncIn = NominalIn / Scale;
/** Calibrated total kernel time at the nominal size (Figure 7 fit). */
constexpr double KernelNs = 27.0e6;

float
squash(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/** Input, weights and deltas, the CPU reference's forward pass and
 *  its weight update at the 64 sampled entries. */
struct Fixture
{
    Bytes input;
    Bytes w1;
    Bytes delta;
    std::vector<float> hidden;  // [1..Hidden]; [0] unused
    std::vector<Expected<float>> samples;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint64_t in = FuncIn;
        Rng rng(0xb9);
        std::vector<float> input(in + 1, 0.0f);
        for (std::uint64_t i = 1; i <= in; ++i)
            input[i] = static_cast<float>(rng.nextDouble());
        std::vector<float> w1((in + 1) * (Hidden + 1));
        for (auto &w : w1)
            w = static_cast<float>(rng.nextDouble() - 0.5) * 0.01f;
        std::vector<float> delta(Hidden + 1);
        for (auto &d : delta)
            d = static_cast<float>(rng.nextDouble() - 0.5) * 0.1f;

        Fixture out{vecBytes(input), vecBytes(w1), vecBytes(delta),
                    std::vector<float>(Hidden + 1), {}};
        Rng pick(3);
        for (int s = 0; s < 64; ++s) {
            const std::uint64_t i = pick.nextBelow(in + 1);
            const std::uint64_t j = 1 + pick.nextBelow(Hidden);
            const float x = i == 0 ? 1.0f : input[i];
            const float expect =
                w1[i * (Hidden + 1) + j] + 0.3f * delta[j] * x;
            out.samples.push_back({i * (Hidden + 1) + j, expect});
        }
        for (std::uint64_t j = 1; j <= Hidden; ++j) {
            float sum = w1[j];
            for (std::uint64_t i = 1; i <= in; ++i)
                sum += input[i] * w1[i * (Hidden + 1) + j];
            out.hidden[j] = squash(sum);
        }
        return out;
    }();
    return f;
}

class Backprop : public RodiniaApp
{
  public:
    Backprop()
        : RodiniaApp("BP", Scale,
                     TransferSpec{117 * MiB, (42 * MiB) + (768 * KiB)})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("bp_layerforward").isOk())
            return;
        device.kernels().add(
            "bp_layerforward",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {input, w1, hidden_out, in_f, nominal_in}
                const std::uint64_t in = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t inputs,
                                     checkedSize({in}, 1));
                HIX_ASSIGN_OR_RETURN(const std::uint64_t weights,
                                     checkedSize({inputs, Hidden + 1}));
                return DeviceArrays(mem, arrayIn<float>(args[0], inputs),
                                    arrayIn<float>(args[1], weights),
                                    arrayOut<float>(args[2], Hidden + 1))
                    .run([&](std::span<const float> input,
                             std::span<const float> w1,
                             std::span<float> hidden) {
                        // One pass over the rows with one accumulator
                        // per hidden unit. Each still adds its terms
                        // in ascending i, and w * x == x * w, so the
                        // sums are those of one pass per unit.
                        std::array<float, Hidden> sum;
                        for (std::uint32_t j = 0; j < Hidden; ++j)
                            sum[j] = w1[j + 1];  // bias row 0
                        for (std::uint64_t i = 1; i <= in; ++i) {
                            const float x = input[i];
                            const float *w =
                                w1.data() + i * (Hidden + 1) + 1;
                            for (std::uint32_t j = 0; j < Hidden; ++j)
                                sum[j] += w[j] * x;
                        }
                        for (std::uint32_t j = 0; j < Hidden; ++j)
                            hidden[j + 1] = squash(sum[j]);
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[4]) / NominalIn;
                return calibratedKernelCost(KernelNs * 0.5, ratio, 1, 1);
            });
        device.kernels().add(
            "bp_adjust_weights",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {input, w1, delta, in_f, nominal_in}
                const std::uint64_t in = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t inputs,
                                     checkedSize({in}, 1));
                HIX_ASSIGN_OR_RETURN(const std::uint64_t weights,
                                     checkedSize({inputs, Hidden + 1}));
                return DeviceArrays(mem, arrayIn<float>(args[0], inputs),
                                    arrayInOut<float>(args[1], weights),
                                    arrayIn<float>(args[2], Hidden + 1))
                    .run([&](std::span<const float> input,
                             std::span<float> w1,
                             std::span<const float> delta) {
                        // 0.3f * delta[j] is the product the update
                        // evaluates first, so it is computed once.
                        std::array<float, Hidden> step;
                        for (std::uint32_t j = 0; j < Hidden; ++j)
                            step[j] = 0.3f * delta[j + 1];
                        for (std::uint64_t i = 0; i <= in; ++i) {
                            const float x = i == 0 ? 1.0f : input[i];
                            float *w = w1.data() + i * (Hidden + 1) + 1;
                            for (std::uint32_t j = 0; j < Hidden; ++j)
                                w[j] += step[j] * x;
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[4]) / NominalIn;
                return calibratedKernelCost(KernelNs * 0.5, ratio, 1, 1);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint64_t in = FuncIn;
        const Fixture &fx = fixture();

        HIX_ASSIGN_OR_RETURN(auto k_fwd,
                             api.loadModule("bp_layerforward"));
        HIX_ASSIGN_OR_RETURN(auto k_adj,
                             api.loadModule("bp_adjust_weights"));

        HIX_ASSIGN_OR_RETURN(Addr d_input,
                             api.memAlloc((in + 1) * 4));
        HIX_ASSIGN_OR_RETURN(
            Addr d_w1, api.memAlloc((in + 1) * (Hidden + 1) * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_hidden,
                             api.memAlloc((Hidden + 1) * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_delta,
                             api.memAlloc((Hidden + 1) * 4));

        std::uint64_t h2d = 0;
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_input, fx.input));
        h2d += (in + 1) * 4;
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_w1, fx.w1));
        h2d += fx.w1.size();
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_delta, fx.delta));
        h2d += fx.delta.size();
        HIX_RETURN_IF_ERROR(padHtoD(api, h2d));

        HIX_RETURN_IF_ERROR(api.launchKernel(
            k_fwd, {d_input, d_w1, d_hidden, in, NominalIn}));
        HIX_RETURN_IF_ERROR(api.launchKernel(
            k_adj, {d_input, d_w1, d_delta, in, NominalIn}));

        HIX_ASSIGN_OR_RETURN(Bytes hidden_bytes,
                             api.memcpyDtoH(d_hidden, (Hidden + 1) * 4));
        HIX_ASSIGN_OR_RETURN(Bytes w1_bytes,
                             api.memcpyDtoH(d_w1, fx.w1.size()));
        HIX_RETURN_IF_ERROR(
            padDtoH(api, (Hidden + 1) * 4 + fx.w1.size()));

        // Verify the weight update against a CPU reference (sampled).
        // Written so that a NaN result fails too.
        const ElementsOf<float> w1_out(w1_bytes);
        for (const auto &e : fx.samples) {
            if (!(std::fabs(w1_out[e.index] - e.value) <= 1e-4f))
                return errInternal("BP weight update mismatch");
        }
        // Verify the forward pass.
        const ElementsOf<float> hidden(hidden_bytes);
        for (std::uint64_t j = 1; j <= Hidden; ++j) {
            if (!(std::fabs(hidden[j] - fx.hidden[j]) <= 1e-3f))
                return errInternal("BP forward pass mismatch");
        }

        for (Addr va : {d_input, d_w1, d_hidden, d_delta})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeBackprop()
{
    return std::make_unique<Backprop>();
}

}  // namespace hix::workloads
