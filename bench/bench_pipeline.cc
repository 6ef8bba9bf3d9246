/**
 * @file
 * Ablations of the HIX data-path design choices (Sections 4.4.2 and
 * 5.2): single-copy vs naive double copy, pipelined vs serialized
 * chunk encryption, DMA vs programmed-I/O ciphertext movement, and a
 * pipeline chunk-size sweep. Run on the transfer-heavy PF workload
 * plus a large matrix addition.
 */

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "workloads/runner.h"

using namespace hix;
using namespace hix::workloads;

namespace
{

bench::BenchJson json("pipeline");

Tick
timeConfig(const std::function<std::unique_ptr<Workload>()> &factory,
           bool single_copy, bool pipeline, bool use_pio,
           const std::string &row_config,
           std::uint64_t chunk_bytes = 0)
{
    RunConfig config;
    config.factory = factory;
    config.singleCopy = single_copy;
    config.pipeline = pipeline;
    config.usePio = use_pio;
    if (chunk_bytes != 0)
        config.machine.timing.pipelineChunkBytes = chunk_bytes;
    bench::HostTimer timer;
    auto outcome = runWorkload(config);
    if (!outcome.isOk()) {
        std::printf("  run failed: %s\n",
                    outcome.status().toString().c_str());
        return 0;
    }
    json.add(row_config, outcome->ticks, timer.ms())
        .metric("tlb_hits", double(outcome->tlbHits))
        .metric("tlb_misses", double(outcome->tlbMisses))
        .metric("iotlb_hits", double(outcome->iotlbHits));
    return outcome->ticks;
}

void
ablate(const char *name,
       const std::function<std::unique_ptr<Workload>()> &factory)
{
    const std::string base = std::string("workload=") + name;
    const Tick full =
        timeConfig(factory, true, true, false, base + " variant=full");
    const Tick no_pipe = timeConfig(factory, true, false, false,
                                    base + " variant=no_pipeline");
    const Tick naive = timeConfig(factory, false, true, false,
                                  base + " variant=double_copy");
    const Tick pio =
        timeConfig(factory, true, true, true, base + " variant=pio");

    std::printf("%-16s | %10.2f | %10.2f (%+5.1f%%) | %10.2f (%+5.1f%%) |"
                " %10.2f (%+5.1f%%)\n",
                name, ticksToMs(full), ticksToMs(no_pipe),
                (double(no_pipe) / full - 1) * 100, ticksToMs(naive),
                (double(naive) / full - 1) * 100, ticksToMs(pio),
                (double(pio) / full - 1) * 100);
}

}  // namespace

int
main()
{
    std::printf("HIX data-path ablations (Sections 4.4.2, 5.2)\n\n");
    std::printf("%-16s | %10s | %22s | %22s | %22s\n", "workload",
                "HIX (ms)", "no pipelining", "naive double copy",
                "PIO data path");
    ablate("PF", [] { return makeRodinia("PF"); });
    ablate("NW", [] { return makeRodinia("NW"); });
    ablate("matrix_add_8192", [] { return makeMatrixAdd(8192); });

    std::printf("\nPipeline chunk-size sweep (PF, single-copy, "
                "pipelined):\n");
    std::printf("%12s | %10s\n", "chunk", "HIX (ms)");
    for (std::uint64_t chunk :
         {512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB}) {
        const Tick t = timeConfig(
            [] { return makeRodinia("PF"); }, true, true, false,
            "workload=PF chunk_kib=" + std::to_string(chunk / KiB),
            chunk);
        std::printf("%9.1f MiB | %10.2f\n",
                    double(chunk) / (1 << 20), ticksToMs(t));
    }
    std::printf(
        "\nExpected shape: pipelining and single-copy each cut the "
        "data-path cost;\nPIO is slower than DMA for bulk data; "
        "moderate chunks (2-8 MiB) win the sweep.\n");
    return json.write() ? 0 : 1;
}
