#include "reference_kernels.h"

#include <algorithm>
#include <map>

#include "workloads/rodinia_util.h"

namespace hix::workloads
{
namespace
{

constexpr std::uint64_t Hidden = 16;

float
squash(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

Status
pfBand(const gpu::GpuMemAccessor &mem, const gpu::KernelArgs &args)
{
    const std::uint64_t n = args[2];
    const std::uint64_t rows = args[4] > args[3] ? args[4] - args[3] : 0;
    HIX_ASSIGN_OR_RETURN(auto cost,
                         loadArray<std::int32_t>(mem, args[1], n));
    HIX_ASSIGN_OR_RETURN(
        const auto band,
        loadArray<std::int32_t>(mem, args[0] + args[3] * n * 4, rows * n));
    for (std::uint64_t r = 0; r < rows; ++r) {
        // In place: `left` keeps the old cost[j-1].
        std::int32_t left = 0;
        for (std::uint64_t j = 0; j < n; ++j) {
            const std::int32_t here = cost[j];
            std::int32_t best = here;
            if (j > 0)
                best = std::min(best, left);
            if (j + 1 < n)
                best = std::min(best, cost[j + 1]);
            left = here;
            cost[j] = band[r * n + j] + best;
        }
    }
    return storeArray(mem, args[1], cost);
}

Status
bpLayerforward(const gpu::GpuMemAccessor &mem, const gpu::KernelArgs &args)
{
    const std::uint64_t in = args[3];
    HIX_ASSIGN_OR_RETURN(const auto input,
                         loadArray<float>(mem, args[0], in + 1));
    HIX_ASSIGN_OR_RETURN(
        const auto w1, loadArray<float>(mem, args[1], (in + 1) * (Hidden + 1)));
    std::vector<float> hidden(Hidden + 1);
    for (std::uint64_t j = 1; j <= Hidden; ++j) {
        float sum = w1[j];  // bias row 0
        for (std::uint64_t i = 1; i <= in; ++i)
            sum += input[i] * w1[i * (Hidden + 1) + j];
        hidden[j] = squash(sum);
    }
    return storeArray(mem, args[2], hidden);
}

Status
bpAdjustWeights(const gpu::GpuMemAccessor &mem, const gpu::KernelArgs &args)
{
    const std::uint64_t in = args[3];
    HIX_ASSIGN_OR_RETURN(const auto input,
                         loadArray<float>(mem, args[0], in + 1));
    HIX_ASSIGN_OR_RETURN(
        auto w1, loadArray<float>(mem, args[1], (in + 1) * (Hidden + 1)));
    HIX_ASSIGN_OR_RETURN(const auto delta,
                         loadArray<float>(mem, args[2], Hidden + 1));
    for (std::uint64_t i = 0; i <= in; ++i) {
        const float x = i == 0 ? 1.0f : input[i];
        for (std::uint64_t j = 1; j <= Hidden; ++j) {
            w1[i * (Hidden + 1) + j] += 0.3f * delta[j] * x;
        }
    }
    return storeArray(mem, args[1], w1);
}

Status
bfsLevel(const gpu::GpuMemAccessor &mem, const gpu::KernelArgs &args)
{
    const std::uint64_t n = args[3];
    const std::int32_t cur = static_cast<std::int32_t>(args[5]);
    HIX_ASSIGN_OR_RETURN(const auto rows,
                         loadArray<std::int32_t>(mem, args[0], n + 1));
    HIX_ASSIGN_OR_RETURN(const auto edges,
                         loadArray<std::int32_t>(mem, args[1], args[4]));
    HIX_ASSIGN_OR_RETURN(auto level,
                         loadArray<std::int32_t>(mem, args[2], n));
    for (std::uint64_t v = 0; v < n; ++v) {
        if (level[v] != cur)
            continue;
        for (std::int32_t e = rows[v]; e < rows[v + 1]; ++e) {
            const std::int32_t to = edges[e];
            if (level[to] < 0)
                level[to] = cur + 1;
        }
    }
    return storeArray(mem, args[2], level);
}

Status
ludBlock(const gpu::GpuMemAccessor &mem, const gpu::KernelArgs &args)
{
    const std::uint64_t n = args[1];
    HIX_ASSIGN_OR_RETURN(auto a, loadArray<float>(mem, args[0], n * n));
    for (std::uint64_t k = args[2]; k < args[3]; ++k) {
        for (std::uint64_t i = k + 1; i < n; ++i) {
            a[i * n + k] /= a[k * n + k];
            const float lik = a[i * n + k];
            for (std::uint64_t j = k + 1; j < n; ++j)
                a[i * n + j] -= lik * a[k * n + j];
        }
    }
    return storeArray(mem, args[0], a);
}

}  // namespace

gpu::KernelFn
referenceKernel(const std::string &kernel)
{
    static const std::map<std::string, gpu::KernelFn> kernels = {
        {"pf_band", pfBand},
        {"bp_layerforward", bpLayerforward},
        {"bp_adjust_weights", bpAdjustWeights},
        {"bfs_level", bfsLevel},
        {"lud_block", ludBlock},
    };
    auto it = kernels.find(kernel);
    return it == kernels.end() ? gpu::KernelFn() : it->second;
}

}  // namespace hix::workloads
