/**
 * @file
 * Reproduces Figure 7 / Table 5: single-user execution time of the
 * nine Rodinia applications on Gdev (unprotected) and HIX, with the
 * per-application transfer volumes and the HIX overhead.
 */

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "workloads/runner.h"

using namespace hix;
using namespace hix::workloads;

int
main()
{
    std::printf(
        "Figure 7 / Table 5: Rodinia benchmarks, single user "
        "(Gdev vs HIX)\n\n");
    std::printf(
        " App  |     HtoD    |     DtoH    |  Gdev (ms) |  HIX (ms)  |"
        " overhead\n");

    const char *apps[] = {"BP", "BFS", "GS", "HS", "LUD",
                          "NW", "NN", "PF", "SRAD"};
    bench::BenchJson json("rodinia");
    double ratio_sum = 0;
    int count = 0;
    for (const char *app : apps) {
        auto factory = [app] { return makeRodinia(app); };
        bench::HostTimer base_timer;
        auto base = runBaseline(factory);
        const double base_ms = base_timer.ms();
        bench::HostTimer secure_timer;
        auto secure = runHix(factory);
        const double secure_ms = secure_timer.ms();
        if (!base.isOk() || !secure.isOk()) {
            std::printf("%-5s | FAILED: %s / %s\n", app,
                        base.status().toString().c_str(),
                        secure.status().toString().c_str());
            continue;
        }
        const auto spec = factory()->nominalTransfers();
        const double ratio =
            double(secure->ticks) / double(base->ticks);
        ratio_sum += ratio;
        ++count;
        std::printf(
            "%-5s | %8.2f MB | %8.2f MB | %10.2f | %10.2f | %+7.1f%%\n",
            app, double(spec.htodBytes) / (1 << 20),
            double(spec.dtohBytes) / (1 << 20), base->milliseconds(),
            secure->milliseconds(), (ratio - 1) * 100);
        const std::string config = std::string("app=") + app;
        json.add(config + " runtime=gdev", base->ticks, base_ms);
        json.add(config + " runtime=hix", secure->ticks, secure_ms)
            .metric("overhead_vs_gdev", ratio);
    }
    std::printf("\nAverage HIX overhead: %+.1f%%\n",
                (ratio_sum / count - 1) * 100);
    const bool wrote = json.write();
    std::printf(
        "\nPaper reference (Section 5.3.2): 26.8%% average; BP +81.5%%, "
        "NW +70.1%%,\nPF +154%%; GS comparable; HS/LUD/NN slightly "
        "faster under HIX thanks to\nlower task-initialization "
        "overhead.\n");
    return wrote ? 0 : 1;
}
