/**
 * @file
 * K-Nearest Neighbors (NN): one distance kernel over ~42.7k
 * latitude/longitude records, host-side top-k selection. Table 5:
 * 334.1 KB HtoD / 167.05 KB DtoH — the smallest app, dominated by
 * task initialization (where HIX wins).
 */

#include <algorithm>

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t Records = 42765;
constexpr double KernelNs = 0.4e6;

/** The (lat, lng) records, as uploaded and as the check reads them. */
struct Fixture
{
    std::vector<float> recs;
    Bytes bytes;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        Rng rng(0x22);
        std::vector<float> recs(Records * 2);
        for (auto &v : recs)
            v = static_cast<float>(rng.nextDouble() * 180 - 90);
        Bytes bytes = vecBytes(recs);
        return Fixture{std::move(recs), std::move(bytes)};
    }();
    return f;
}

class NearestNeighbor : public RodiniaApp
{
  public:
    NearestNeighbor()
        : RodiniaApp("NN", /*scale=*/1,
                     TransferSpec{Records * 8, Records * 4})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("nn_distance").isOk())
            return;
        device.kernels().add(
            "nn_distance",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {records(lat,lng pairs), dist_out, count,
                //        lat_bits, lng_bits}
                const std::uint64_t count = args[2];
                float lat, lng;
                const auto lat_bits =
                    static_cast<std::uint32_t>(args[3]);
                const auto lng_bits =
                    static_cast<std::uint32_t>(args[4]);
                std::memcpy(&lat, &lat_bits, 4);
                std::memcpy(&lng, &lng_bits, 4);
                HIX_ASSIGN_OR_RETURN(const std::uint64_t coords,
                                     checkedSize({count, 2}));
                return DeviceArrays(mem, arrayIn<float>(args[0], coords),
                                    arrayOut<float>(args[1], count))
                    .run([&](std::span<const float> recs,
                             std::span<float> dist) {
                        for (std::uint64_t i = 0; i < count; ++i) {
                            const float dlat = recs[2 * i] - lat;
                            const float dlng = recs[2 * i + 1] - lng;
                            dist[i] = std::sqrt(dlat * dlat + dlng * dlng);
                        }
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[2]) / Records;
                return calibratedKernelCost(KernelNs, ratio, 1, 1);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const Fixture &fx = fixture();
        const std::vector<float> &recs = fx.recs;
        const float lat = 30.0f, lng = -60.0f;

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("nn_distance"));
        HIX_ASSIGN_OR_RETURN(Addr d_recs,
                             api.memAlloc(recs.size() * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_dist, api.memAlloc(Records * 4));

        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_recs, fx.bytes));

        std::uint32_t lat_bits, lng_bits;
        std::memcpy(&lat_bits, &lat, 4);
        std::memcpy(&lng_bits, &lng, 4);
        HIX_RETURN_IF_ERROR(api.launchKernel(
            kid, {d_recs, d_dist, Records, lat_bits, lng_bits}));

        HIX_ASSIGN_OR_RETURN(Bytes out,
                             api.memcpyDtoH(d_dist, Records * 4));

        // Top-5 on the host; verify against a CPU reference. NaN
        // sorts last, so the order stays strict weak on any device
        // output, and a NaN distance fails the check.
        const ElementsOf<float> dist(out);
        std::vector<std::uint32_t> idx(Records);
        for (std::uint32_t i = 0; i < Records; ++i)
            idx[i] = i;
        std::partial_sort(idx.begin(), idx.begin() + 5, idx.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                              return dist[a] < dist[b] ||
                                     (!std::isnan(dist[a]) &&
                                      std::isnan(dist[b]));
                          });
        for (int k = 0; k < 5; ++k) {
            const std::uint32_t i = idx[k];
            const float dlat = recs[2 * i] - lat;
            const float dlng = recs[2 * i + 1] - lng;
            const float expect =
                std::sqrt(dlat * dlat + dlng * dlng);
            if (!(std::fabs(dist[i] - expect) <= 1e-4f))
                return errInternal("NN distance mismatch");
        }

        for (Addr va : {d_recs, d_dist})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeNearestNeighbor()
{
    return std::make_unique<NearestNeighbor>();
}

}  // namespace hix::workloads
