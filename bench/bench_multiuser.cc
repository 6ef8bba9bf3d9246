/**
 * @file
 * Reproduces Figures 8 and 9: Rodinia execution time with two and
 * four concurrent users, on Gdev (pre-Volta MPS: all users merged
 * into one GPU context) and HIX (one isolated GPU context per user
 * enclave, per-user session keys, in-GPU cryptography). All values
 * are normalized to Gdev with one user, as in the paper.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_json.h"
#include "workloads/runner.h"

using namespace hix;
using namespace hix::workloads;

namespace
{

/** One configuration's outcome and its host wall-clock. */
struct TimedRun
{
    Result<RunOutcome> outcome = errInternal("not run");
    double ms = 0;
};

TimedRun
timedRun(const std::function<std::unique_ptr<Workload>()> &factory,
         int users, bool use_hix)
{
    TimedRun run;
    RunConfig config;
    config.factory = factory;
    config.users = users;
    config.useHix = use_hix;

    bench::HostTimer timer;
    run.outcome = runWorkload(config);
    run.ms = timer.ms();
    return run;
}

void
runFigure(int users, bench::BenchJson &json)
{
    if (users == 2 || users == 4)
        std::printf(
            "Figure %d: Rodinia with %d concurrent users "
            "(normalized to Gdev 1 user)\n\n",
            users == 2 ? 8 : 9, users);
    else
        std::printf(
            "Scale-out beyond the paper: Rodinia with %d concurrent "
            "users (normalized to Gdev 1 user)\n\n",
            users);
    std::printf(
        " App  | Gdev 1u (ms) | Gdev %du (norm) | HIX %du (norm) |"
        " HIX/Gdev | ctx switches\n",
        users, users);

    double gdev_sum = 0, hix_sum = 0;
    int count = 0;
    for (const char *app :
         {"BP", "BFS", "GS", "HS", "LUD", "NW", "NN", "PF", "SRAD"}) {
        auto factory = [app] { return makeRodinia(app); };
        auto one = runBaseline(factory, 1);
        TimedRun base = timedRun(factory, users, /*use_hix=*/false);
        TimedRun secure = timedRun(factory, users, /*use_hix=*/true);
        if (!one.isOk() || !base.outcome.isOk() ||
            !secure.outcome.isOk()) {
            std::printf("%-5s | FAILED\n", app);
            continue;
        }
        const double gdev_norm =
            double(base.outcome->ticks) / double(one->ticks);
        const double hix_norm =
            double(secure.outcome->ticks) / double(one->ticks);
        gdev_sum += gdev_norm;
        hix_sum += hix_norm;
        ++count;
        std::printf(
            "%-5s | %12.2f | %14.2f | %13.2f | %+7.1f%% | %12llu\n",
            app, one->milliseconds(), gdev_norm, hix_norm,
            (hix_norm / gdev_norm - 1) * 100,
            static_cast<unsigned long long>(
                secure.outcome->gpuCtxSwitches));
        const std::string config = std::string("app=") + app +
                                   " users=" + std::to_string(users);
        json.add(config + " runtime=gdev", base.outcome->ticks,
                 base.ms)
            .metric("norm_vs_1u", gdev_norm)
            .metric("boot_ms", base.outcome->hostBootMs)
            .metric("resident_pages_per_session",
                    double(base.outcome->residentPages) / users);
        json.add(config + " runtime=hix", secure.outcome->ticks,
                 secure.ms)
            .metric("norm_vs_1u", hix_norm)
            .metric("ctx_switches",
                    double(secure.outcome->gpuCtxSwitches))
            .metric("boot_ms", secure.outcome->hostBootMs)
            .metric("resident_pages_per_session",
                    double(secure.outcome->residentPages) / users);
    }
    std::printf(
        "\nAverage: Gdev %du %.2fx of 1u;  HIX %du %.2fx of 1u;  "
        "HIX vs Gdev parallel: %+.1f%%\n\n",
        users, gdev_sum / count, users, hix_sum / count,
        (hix_sum / gdev_sum - 1) * 100);
}

}  // namespace

namespace
{

/**
 * Section 4.5 future work, implemented as an ablation: Volta-style
 * isolated simultaneous multi-context execution (per-context queues,
 * no context switches). The paper predicts this "significantly
 * reduces" HIX's multi-user degradation.
 */
void
runVoltaAblation(int users)
{
    std::printf(
        "Future-work ablation: Volta-style concurrent contexts, "
        "%d users (HIX)\n\n",
        users);
    std::printf(" App  | Fermi HIX (ms) | Volta HIX (ms) | change | "
                "ctx switches (Fermi -> Volta)\n");
    for (const char *app : {"BP", "GS", "NW", "PF"}) {
        auto factory = [app] { return makeRodinia(app); };
        RunConfig fermi;
        fermi.factory = factory;
        fermi.users = users;
        RunConfig volta = fermi;
        volta.machine.timing.gpuConcurrentContexts = 8;
        auto f = runWorkload(fermi);
        auto v = runWorkload(volta);
        if (!f.isOk() || !v.isOk()) {
            std::printf("%-5s | FAILED\n", app);
            continue;
        }
        std::printf("%-5s | %14.2f | %14.2f | %+5.1f%% | %llu -> %llu\n",
                    app, f->milliseconds(), v->milliseconds(),
                    (double(v->ticks) / double(f->ticks) - 1) * 100,
                    static_cast<unsigned long long>(f->gpuCtxSwitches),
                    static_cast<unsigned long long>(v->gpuCtxSwitches));
    }
    std::printf("\n");
}

/**
 * Volta preset as measured rows: per-context compute queues, DMA
 * channels, and HIX enclave dispatch lanes all sized so every user
 * owns a private slice of each engine bank. The CI perf-smoke gate
 * pins every "volta " row's ticks to the committed reference.
 */
void
runVoltaRows(bench::BenchJson &json)
{
    std::printf("Volta preset: per-context queues/channels/lanes\n\n");
    std::printf(" App  | users | runtime | ticks (ms)\n");
    for (const char *app : {"BP", "NN"}) {
        for (int users : {2, 4, 8, 16}) {
            for (bool use_hix : {false, true}) {
                auto factory = [app] { return makeRodinia(app); };
                RunConfig config;
                config.factory = factory;
                config.users = users;
                config.useHix = use_hix;
                // Power-of-two width >= users keeps each session's
                // canonical ctx on a private channel of every bank.
                const auto width = static_cast<std::uint32_t>(
                    std::max(8, users));
                config.machine.timing.gpuConcurrentContexts = width;
                config.machine.timing.gpuDmaChannels = width;
                config.machine.timing.gpuEnclaveLanes = width;

                bench::HostTimer timer;
                auto out = runWorkload(config);
                const double ms = timer.ms();

                if (!out.isOk()) {
                    std::printf("%-5s | %5d | %-7s | FAILED\n", app,
                                users, use_hix ? "hix" : "gdev");
                    continue;
                }
                std::printf("%-5s | %5d | %-7s | %10.2f\n", app, users,
                            use_hix ? "hix" : "gdev", out->milliseconds());
                const std::string config_name =
                    std::string("volta app=") + app +
                    " users=" + std::to_string(users) +
                    " runtime=" + (use_hix ? "hix" : "gdev");
                json.add(config_name, out->ticks, ms)
                    .metric("engine_width", double(width));
            }
        }
    }
    std::printf("\n");
}

}  // namespace

int
main()
{
    bench::BenchJson json("multiuser");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("Recording pool: min(users, %u hardware thread(s)) "
                "workers.\n\n",
                hw == 0 ? 1 : hw);
    runFigure(2, json);
    runFigure(4, json);
    // Past the paper's figures: contention trends at higher tenancy.
    runFigure(8, json);
    runFigure(16, json);
    runVoltaAblation(4);
    runVoltaRows(json);
    const bool wrote = json.write();
    std::printf(
        "Paper reference (Section 5.4): HIX parallel execution is "
        "about 45.2%% worse\nwith two users and 39.7%% worse with four "
        "users than Gdev parallel execution,\ndriven by in-GPU crypto "
        "kernels, added context switches, and small-input\ncrypto "
        "underutilization. This model reproduces the direction and "
        "the per-app\nordering; magnitudes for the compute-heavy apps "
        "sit below the paper's.\n");
    return wrote ? 0 : 1;
}
