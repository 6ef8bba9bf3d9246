/**
 * @file
 * Microbenchmarks of the PCIe fabric model (google-benchmark, host
 * wall-clock): memory-TLP routing, config reads, and the cost of the
 * MMIO lockdown filter on the config-write path. Supports the claim
 * that the lockdown adds no data-path cost (it only filters config
 * transactions, Section 4.3.2).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "bench_json.h"
#include "common/units.h"
#include "mem/phys_mem.h"
#include "pcie/root_complex.h"

using namespace hix;
using namespace hix::pcie;

namespace
{

class NullDevice : public PcieDevice
{
  public:
    NullDevice() : PcieDevice("null", 0x10de, 0x1080, 0x030000)
    {
        (void)config().declareBar(0, 1 * MiB);
    }

    Status
    mmioRead(int, std::uint64_t, std::uint8_t *data,
             std::size_t len) override
    {
        std::memset(data, 0, len);
        return Status::ok();
    }

    Status
    mmioWrite(int, std::uint64_t, const std::uint8_t *,
              std::size_t) override
    {
        return Status::ok();
    }
};

struct Fabric
{
    mem::PhysicalBus bus;
    mem::PhysMem ram{"ram", 16 * MiB};
    NullDevice dev;
    RootComplex rc{AddrRange(0xe0000000, 256 * MiB), &bus, nullptr};

    Fabric()
    {
        (void)bus.attach(AddrRange(0, 16 * MiB), &ram);
        (void)rc.attachDevice(0, &dev);
        (void)rc.enumerate();
    }
};

void
BM_MemTlpRoundTrip(benchmark::State &state)
{
    Fabric fabric;
    const Addr bar = fabric.dev.config().barBase(0);
    Bytes out;
    for (auto _ : state) {
        Status st = fabric.rc.routeTlp(Tlp::memRead(bar + 0x40, 4), &out);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_MemTlpRoundTrip);

void
BM_ConfigRead(benchmark::State &state)
{
    Fabric fabric;
    for (auto _ : state) {
        auto v = fabric.rc.configRead(fabric.dev.bdf(), cfg::VendorId);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_ConfigRead);

void
BM_ConfigWriteUnlocked(benchmark::State &state)
{
    Fabric fabric;
    for (auto _ : state) {
        Status st =
            fabric.rc.configWrite(fabric.dev.bdf(), 0x40, 0x1234);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_ConfigWriteUnlocked);

void
BM_ConfigWriteLockedBenign(benchmark::State &state)
{
    Fabric fabric;
    (void)fabric.rc.lockPath(fabric.dev.bdf());
    for (auto _ : state) {
        Status st =
            fabric.rc.configWrite(fabric.dev.bdf(), 0x40, 0x1234);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_ConfigWriteLockedBenign);

void
BM_ConfigWriteLockedDropped(benchmark::State &state)
{
    Fabric fabric;
    (void)fabric.rc.lockPath(fabric.dev.bdf());
    for (auto _ : state) {
        Status st = fabric.rc.configWrite(fabric.dev.bdf(), cfg::Bar0,
                                          0xdead0000);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_ConfigWriteLockedDropped);

void
BM_DmaWrite4K(benchmark::State &state)
{
    Fabric fabric;
    Bytes data(4096, 0x5a);
    for (auto _ : state) {
        Status st = fabric.rc.dmaWrite(0x1000, data.data(), data.size());
        benchmark::DoNotOptimize(st);
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DmaWrite4K);

/**
 * Quick wall-clock sweep for BENCH_pcie.json: ns/op of the hot fabric
 * paths, independent of the google-benchmark reporters. False if the
 * file could not be written.
 */
bool
writeJsonSweep()
{
    bench::BenchJson json("pcie");
    auto timed = [&json](const char *path, auto &&fn) {
        bench::HostTimer timer;
        std::size_t calls = 0;
        do {
            fn();
            ++calls;
        } while (timer.ms() < 20.0);
        const double total_ms = timer.ms();
        json.add(std::string("path=") + path, 0, total_ms)
            .metric("ns_per_op", total_ms * 1e6 / double(calls));
    };

    Fabric fabric;
    const Addr bar = fabric.dev.config().barBase(0);
    Bytes out;
    timed("mem_tlp_round_trip", [&] {
        Status st =
            fabric.rc.routeTlp(Tlp::memRead(bar + 0x40, 4), &out);
        benchmark::DoNotOptimize(st);
    });
    timed("config_read", [&] {
        auto v = fabric.rc.configRead(fabric.dev.bdf(), cfg::VendorId);
        benchmark::DoNotOptimize(v);
    });
    (void)fabric.rc.lockPath(fabric.dev.bdf());
    timed("config_write_locked_benign", [&] {
        Status st =
            fabric.rc.configWrite(fabric.dev.bdf(), 0x40, 0x1234);
        benchmark::DoNotOptimize(st);
    });
    Bytes data(4096, 0x5a);
    timed("dma_write_4k", [&] {
        Status st =
            fabric.rc.dmaWrite(0x1000, data.data(), data.size());
        benchmark::DoNotOptimize(st);
    });
    return json.write();
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool wrote = writeJsonSweep();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return wrote ? 0 : 1;
}
