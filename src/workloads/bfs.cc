/**
 * @file
 * Breadth-First Search (BFS): level-synchronous frontier expansion
 * over a random sparse graph, one kernel launch per level (the
 * Rodinia pattern). Table 5: 45.78 MB HtoD / 3.81 MB DtoH, 1,000,000
 * nodes.
 */

#include <memory>
#include <queue>
#include <string>

#include "workloads/rodinia_util.h"

namespace hix::workloads
{

namespace
{

constexpr std::uint32_t NominalNodes = 1000000;
constexpr std::uint64_t Scale = 16;
constexpr std::uint32_t FuncNodes = NominalNodes / Scale;
constexpr std::uint32_t Degree = 6;
constexpr double KernelNs = 16.0e6;

/** The graph (CSR rows and edges), the initial level vector, and the
 *  CPU reference BFS's levels and depth. */
struct Fixture
{
    Bytes rows;
    Bytes edges;
    Bytes level;
    std::vector<std::int32_t> refLevel;
    std::int32_t maxLevel = 0;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        const std::uint32_t n = FuncNodes;
        // Build a random graph with a ring backbone (connected).
        Rng rng(0xbf5);
        std::vector<std::int32_t> rows(n + 1);
        std::vector<std::int32_t> edges;
        edges.reserve(std::size_t(n) * Degree);
        for (std::uint32_t v = 0; v < n; ++v) {
            rows[v] = static_cast<std::int32_t>(edges.size());
            edges.push_back(static_cast<std::int32_t>((v + 1) % n));
            for (std::uint32_t d = 1; d < Degree; ++d)
                edges.push_back(
                    static_cast<std::int32_t>(rng.nextBelow(n)));
        }
        rows[n] = static_cast<std::int32_t>(edges.size());

        // CPU reference BFS (also gives the level count).
        std::vector<std::int32_t> ref_level(n, -1);
        std::queue<std::uint32_t> q;
        ref_level[0] = 0;
        q.push(0);
        std::int32_t max_level = 0;
        while (!q.empty()) {
            const std::uint32_t v = q.front();
            q.pop();
            for (std::int32_t e = rows[v]; e < rows[v + 1]; ++e) {
                const auto to = static_cast<std::uint32_t>(edges[e]);
                if (ref_level[to] < 0) {
                    ref_level[to] = ref_level[v] + 1;
                    max_level = std::max(max_level, ref_level[to]);
                    q.push(to);
                }
            }
        }

        std::vector<std::int32_t> level(n, -1);
        level[0] = 0;
        return Fixture{vecBytes(rows), vecBytes(edges), vecBytes(level),
                       std::move(ref_level), max_level};
    }();
    return f;
}

class Bfs : public RodiniaApp
{
  public:
    Bfs()
        : RodiniaApp(
              "BFS", Scale,
              TransferSpec{(45 * MiB) + (798 * KiB),
                           (3 * MiB) + (829 * KiB)})
    {}

    void
    registerKernels(gpu::GpuDevice &device) override
    {
        if (device.kernels().idOf("bfs_level").isOk())
            return;
        device.kernels().add(
            "bfs_level",
            [](const gpu::GpuMemAccessor &mem,
               const gpu::KernelArgs &args) -> Status {
                // args: {row_start, edges, level, n, edge_count,
                //        cur_level, nominal_nodes, total_levels}
                const std::uint64_t n = args[3];
                HIX_ASSIGN_OR_RETURN(const std::uint64_t row_count,
                                     checkedSize({n}, 1));
                return DeviceArrays(mem,
                                    arrayIn<std::int32_t>(args[0], row_count),
                                    arrayIn<std::int32_t>(args[1], args[4]),
                                    arrayInOut<std::int32_t>(args[2], n))
                    .run([&](std::span<const std::int32_t> rows,
                             std::span<const std::int32_t> edges,
                             std::span<std::int32_t> level) -> Status {
                        // The scalars the loops read are locals, not
                        // captures: a level or frontier store may alias
                        // a captured one, and GCC then reloads it in
                        // the loop.
                        const std::uint64_t nodes = level.size();
                        const auto cur = static_cast<std::int32_t>(args[5]);
                        const std::int32_t next = wrappingAdd(cur, 1);
                        // The nodes at `cur` when the launch starts, in
                        // order, compacted without a branch.
                        auto frontier =
                            std::make_unique_for_overwrite<std::uint64_t[]>(
                                nodes);
                        std::uint64_t size = 0;
                        for (std::uint64_t v = 0; v < nodes; ++v) {
                            frontier[size] = v;
                            size += level[v] == cur;
                        }
                        // The graph is VRAM data: a node's edge range
                        // and each target are checked before they are
                        // followed. A target in [0, nodes) is below
                        // `limit` as uint32.
                        const auto limit = static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(nodes, 1ull << 31));
                        for (std::uint64_t f = 0; f < size; ++f) {
                            const std::uint64_t v = frontier[f];
                            // A node set here gets `next`, never `cur`:
                            // only when cur < 0 can it be a frontier
                            // node still to come, which an in-order
                            // pass over all nodes would skip too.
                            if (level[v] != cur)
                                continue;
                            const std::int32_t lo = rows[v];
                            const std::int32_t hi = rows[v + 1];
                            if (lo < 0 || hi < lo ||
                                std::uint64_t(hi) > edges.size())
                                return errAccessFault(
                                    "bfs_level: edge range of node " +
                                    std::to_string(v) +
                                    " outside the edge array");
                            for (std::int32_t e = lo; e < hi; ++e) {
                                const auto to =
                                    static_cast<std::uint32_t>(edges[e]);
                                if (to >= limit)
                                    return errAccessFault(
                                        "bfs_level: edge " +
                                        std::to_string(e) +
                                        " leaves the level array");
                                // A mask select, not `l < 0 ? next :
                                // l`, which GCC 12 compiles to a
                                // branch around the store: whether a
                                // target is unvisited depends on the
                                // data.
                                std::int32_t &l = level[to];
                                const std::int32_t neg = l >> 31;
                                l = (next & neg) | (l & ~neg);
                            }
                        }
                        return Status::ok();
                    });
            },
            [](const gpu::KernelArgs &args) {
                const double ratio =
                    static_cast<double>(args[6]) / NominalNodes;
                const std::uint64_t levels = args[7];
                return calibratedKernelCost(KernelNs, ratio, levels,
                                            levels);
            });
    }

    Status
    run(GpuApi &api) override
    {
        const std::uint32_t n = FuncNodes;
        const Fixture &fx = fixture();
        const std::uint64_t edge_count = fx.edges.size() / 4;

        HIX_ASSIGN_OR_RETURN(auto kid, api.loadModule("bfs_level"));
        HIX_ASSIGN_OR_RETURN(Addr d_rows,
                             api.memAlloc((n + 1) * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_edges,
                             api.memAlloc(edge_count * 4));
        HIX_ASSIGN_OR_RETURN(Addr d_level, api.memAlloc(n * 4));

        std::uint64_t h2d = 0;
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_rows, fx.rows));
        h2d += fx.rows.size();
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_edges, fx.edges));
        h2d += fx.edges.size();
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(d_level, fx.level));
        h2d += fx.level.size();
        HIX_RETURN_IF_ERROR(padHtoD(api, h2d));

        const auto total_levels =
            static_cast<std::uint64_t>(fx.maxLevel) + 1;
        for (std::int32_t lvl = 0; lvl < fx.maxLevel; ++lvl) {
            HIX_RETURN_IF_ERROR(api.launchKernel(
                kid, {d_rows, d_edges, d_level, n, edge_count,
                      static_cast<std::uint64_t>(lvl), NominalNodes,
                      total_levels}));
        }

        HIX_ASSIGN_OR_RETURN(Bytes out, api.memcpyDtoH(d_level, n * 4));
        HIX_RETURN_IF_ERROR(padDtoH(api, n * 4));

        const ElementsOf<std::int32_t> gpu_level(out);
        for (std::uint32_t v = 0; v < n; ++v) {
            if (gpu_level[v] != fx.refLevel[v])
                return errInternal("BFS level mismatch at node " +
                                   std::to_string(v));
        }

        for (Addr va : {d_rows, d_edges, d_level})
            HIX_RETURN_IF_ERROR(api.memFree(va));
        return Status::ok();
    }
};

}  // namespace

std::unique_ptr<Workload>
makeBfs()
{
    return std::make_unique<Bfs>();
}

}  // namespace hix::workloads
