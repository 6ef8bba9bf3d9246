/**
 * @file
 * Reproduces Figure 6 / Table 4: execution time of integer matrix
 * addition and multiplication on Gdev (unprotected) and HIX, for
 * matrix sizes 2048..11264 (the GTX 580's 1.5 GiB limits the sweep,
 * footnote 1 of the paper).
 *
 * The simulation is deterministic, so a single run per point replaces
 * the paper's five-run average.
 */

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "workloads/runner.h"

using namespace hix;
using namespace hix::workloads;

namespace
{

void
runRow(std::uint32_t n, bool multiply, bench::BenchJson &json)
{
    auto factory = [n, multiply] {
        return multiply ? makeMatrixMul(n) : makeMatrixAdd(n);
    };
    const char *op = multiply ? "mul" : "add";
    bench::HostTimer base_timer;
    auto base = runBaseline(factory);
    const double base_ms = base_timer.ms();
    bench::HostTimer secure_timer;
    auto secure = runHix(factory);
    const double secure_ms = secure_timer.ms();
    if (!base.isOk() || !secure.isOk()) {
        std::printf("%9u | FAILED: %s / %s\n", n,
                    base.status().toString().c_str(),
                    secure.status().toString().c_str());
        return;
    }
    const auto spec = factory()->nominalTransfers();
    std::printf(
        "%5ux%-5u | %8.1f MB | %8.1f MB | %10.2f | %10.2f | %6.2fx\n",
        n, n, double(spec.htodBytes) / (1 << 20),
        double(spec.dtohBytes) / (1 << 20), base->milliseconds(),
        secure->milliseconds(),
        double(secure->ticks) / double(base->ticks));
    const std::string config =
        std::string(op) + " n=" + std::to_string(n);
    json.add(config + " runtime=gdev", base->ticks, base_ms);
    json.add(config + " runtime=hix", secure->ticks, secure_ms)
        .metric("overhead_vs_gdev",
                double(secure->ticks) / double(base->ticks));
}

}  // namespace

int
main()
{
    const std::uint32_t sizes[] = {2048, 4096, 8192, 11264};
    bench::BenchJson json("matrix");

    std::printf(
        "Figure 6 / Table 4: matrix microbenchmarks (Gdev vs HIX)\n");
    std::printf(
        "\n-- Integer matrix addition (A + B = C) --\n"
        "   size     |     HtoD    |     DtoH    |  Gdev (ms) |"
        "  HIX (ms)  | HIX/Gdev\n");
    for (std::uint32_t n : sizes)
        runRow(n, false, json);

    std::printf(
        "\n-- Integer matrix multiplication (A x B = C) --\n"
        "   size     |     HtoD    |     DtoH    |  Gdev (ms) |"
        "  HIX (ms)  | HIX/Gdev\n");
    for (std::uint32_t n : sizes)
        runRow(n, true, json);

    std::printf(
        "\nPaper reference: addition ~2.5x slower under HIX; "
        "multiplication overhead\nshrinks with size, down to 6.34%% "
        "at 11264x11264 (Section 5.3.1).\n");
    return json.write() ? 0 : 1;
}
