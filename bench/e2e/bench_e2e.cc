/**
 * @file
 * End-to-end host-time benchmark driver: runs one named workload
 * through the simulator's public entry points (svc::runService,
 * workloads::runWorkload) with library defaults for every execution
 * knob, and prints one JSON line per repetition. bench/e2e/run.py
 * builds this binary, aggregates the lines and checks them against
 * bench/e2e/reference.json.
 *
 *   bench_e2e --selftest
 *   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
 *
 * Every process first runs one untimed warm-up repetition at the
 * workload's default seed (whose outputs are pinned), then timed
 * repetitions at --seed until --seconds have passed. With --trace 1 the
 * timed repetitions alternate between untraced and traced; a traced
 * repetition also reports where its host time went, per layer (see
 * ledger.h). Tracing never changes simulated outputs: a traced
 * repetition reproduces ticks, percentiles and traceDigest bit for bit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "svc/service.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

using namespace hix;
using namespace hix::bench::e2e;

namespace
{

using Clock = std::chrono::steady_clock;
using Factory = std::function<std::unique_ptr<workloads::Workload>()>;

const Clock::time_point g_epoch = Clock::now();

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     g_epoch)
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----- Workloads -------------------------------------------------------

/** One benchmark workload. Why each exists is in README.md. */
struct Spec
{
    const char *name;
    bool service;  //!< open-loop svc stream, else closed batch
    bool useHix;
    const char *app;  //!< batch only
};

const Spec kSpecs[] = {
    {"svc-hix", true, true, nullptr},
    {"svc-gdev", true, false, nullptr},
    {"batch-hix-bp", false, true, "BP"},
    {"batch-gdev-pf", false, false, "PF"},
};

/** Seed of the pinned svc outputs (bench_service's stream). */
constexpr std::uint64_t DefaultSeed = 0x5e55;
constexpr int BatchUsers = 64;

svc::ServiceConfig
serviceConfig(const Spec &spec, std::uint64_t seed)
{
    svc::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.policy = svc::Policy::LeastLoaded;
    cfg.useHix = spec.useHix;
    cfg.seed = seed;
    cfg.sessions = 1000;
    cfg.meanInterarrivalTicks = 4'000'000;
    cfg.tableCap = 64;
    cfg.appMix = {"NN", "LUD", "BFS"};
    cfg.userPopulation = 64;
    cfg.run.keepTrace = true;  // for traceDigest, outside the timing
    return cfg;
}

workloads::RunConfig
batchConfig(const Spec &spec)
{
    workloads::RunConfig rc;
    const std::string app = spec.app;
    rc.factory = [app] { return workloads::makeRodinia(app); };
    rc.users = BatchUsers;
    rc.useHix = spec.useHix;
    rc.keepTrace = true;
    return rc;
}

// ----- Tracing (traced repetitions only) ---------------------------------

/** Per-thread ledgers of one traced repetition. */
class Tracer
{
  public:
    /** The calling thread's ledger, created on first use. */
    Ledger &
    ledger()
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = ledgers_[std::this_thread::get_id()];
        if (!slot)
            slot = std::make_unique<Ledger>();
        return *slot;
    }

    /** RunConfig::shardHook: open the window, observe every op. */
    std::function<void(int, os::Machine &)>
    hook()
    {
        return [this](int, os::Machine &machine) {
            Ledger &l = ledger();
            l.openWindow(nowMs());
            machine.recorder().addObserver(
                [&l](const sim::Op &op, const std::string &label) {
                    l.op(op, label, nowMs());
                });
        };
    }

    Factory wrap(Factory inner);

    std::vector<const Ledger *>
    ledgers() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<const Ledger *> out;
        for (const auto &[id, l] : ledgers_)
            out.push_back(l.get());
        return out;
    }

  private:
    mutable std::mutex mu_;
    std::map<std::thread::id, std::unique_ptr<Ledger>> ledgers_;
};

/** Opens a ledger span for the lifetime of one GpuApi call. */
class CallSpan
{
  public:
    CallSpan(Ledger &l, Call call, std::uint64_t stage_bytes = 0) : l_(l)
    {
        l_.beginCall(call, nowMs(), stage_bytes);
    }
    ~CallSpan() { l_.endCall(nowMs()); }
    CallSpan(const CallSpan &) = delete;
    CallSpan &operator=(const CallSpan &) = delete;

  private:
    Ledger &l_;
};

/** GpuApi decorator: a span around every call, then forward. */
class SpanApi : public workloads::GpuApi
{
  public:
    SpanApi(workloads::GpuApi &inner, Ledger &l, std::uint64_t scale)
        : inner_(inner), l_(l), scale_(scale)
    {
    }

    Result<Addr>
    memAlloc(std::uint64_t size) override
    {
        CallSpan s(l_, Call::Other);
        return inner_.memAlloc(size);
    }
    Status
    memFree(Addr gpu_va) override
    {
        CallSpan s(l_, Call::Other);
        return inner_.memFree(gpu_va);
    }
    Status
    memcpyHtoD(Addr dst, const Bytes &data) override
    {
        CallSpan s(l_, Call::MemcpyHtoD, data.size() * scale_);
        return inner_.memcpyHtoD(dst, data);
    }
    Result<Bytes>
    memcpyDtoH(Addr src, std::uint64_t len) override
    {
        CallSpan s(l_, Call::MemcpyDtoH, len * scale_);
        return inner_.memcpyDtoH(src, len);
    }
    Result<gpu::KernelId>
    loadModule(const std::string &name) override
    {
        CallSpan s(l_, Call::Other);
        return inner_.loadModule(name);
    }
    Status
    launchKernel(gpu::KernelId kernel,
                 const gpu::KernelArgs &args) override
    {
        CallSpan s(l_, Call::Other);
        return inner_.launchKernel(kernel, args);
    }

  private:
    workloads::GpuApi &inner_;
    Ledger &l_;
    std::uint64_t scale_;
};

/** Workload decorator: owns the real workload and runs it through a
 *  SpanApi, timing the whole run as one session. */
class TracedWorkload : public workloads::Workload
{
  public:
    TracedWorkload(std::unique_ptr<workloads::Workload> inner,
                   Tracer &tracer)
        : Workload(inner->name()), inner_(std::move(inner)),
          tracer_(tracer)
    {
    }

    std::uint64_t timingScale() const override
    {
        return inner_->timingScale();
    }
    workloads::TransferSpec
    nominalTransfers() const override
    {
        return inner_->nominalTransfers();
    }
    void
    registerKernels(gpu::GpuDevice &device) override
    {
        inner_->registerKernels(device);
    }

    Status
    run(workloads::GpuApi &api) override
    {
        Ledger &l = tracer_.ledger();
        const double start = nowMs();
        l.enterRun(start);
        SpanApi spans(api, l, inner_->timingScale());
        Status st = inner_->run(spans);
        const double end = nowMs();
        l.exitRun(end);
        l.addSessionMs(end - start);
        return st;
    }

  private:
    std::unique_ptr<workloads::Workload> inner_;
    Tracer &tracer_;
};

Factory
Tracer::wrap(Factory inner)
{
    return [this, inner = std::move(inner)] {
        return std::make_unique<TracedWorkload>(inner(), *this);
    };
}

// ----- One repetition ----------------------------------------------------

struct Rep
{
    Status status;
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;
    std::uint64_t ops = 0;
    Tick ticks = 0;
    Tick p50 = 0, p95 = 0, p99 = 0;
    std::uint64_t digest = 0;
    /** Traced repetitions only: name -> value. */
    std::vector<std::pair<std::string, double>> layers;
};

/** Nearest-rank percentile of host session times. */
double
percentileMs(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(v.size()) * pct / 100.0));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Fill the per-layer metrics of a traced repetition. */
void
addLayers(Rep &rep, const Tracer &tracer,
          const workloads::RunOutcome &run)
{
    LayerTotals sum;
    std::vector<double> sessions;
    double last_exit = 0;
    const auto ledgers = tracer.ledgers();
    for (const Ledger *l : ledgers) {
        sum += l->totals();
        sessions.insert(sessions.end(), l->sessionMs().begin(),
                        l->sessionMs().end());
        last_exit = std::max(last_exit, l->lastExit());
    }
    // A worker is busy from the start of recording until its last
    // session returns; after that it idles until the slowest worker
    // is done. Recording ends (to within the last teardown) when the
    // slowest worker's last session returns.
    const double threads = static_cast<double>(ledgers.size());
    double busy = 0;
    for (const Ledger *l : ledgers)
        busy += run.hostRecordMs - (last_exit - l->lastExit());

    const auto t0 = Clock::now();
    auto resched = sim::scheduleWith(workloads::RunConfig{}.schedulerEngine,
                                     *run.trace, run.schedulerConfig);
    const double schedule_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    if (resched.makespan != run.ticks)
        rep.status = errInternal("re-timed schedule differs");

    // The tail is the highest standard percentile with at least ten
    // samples beyond it.
    double tail_pct = 50;
    for (double pct : {75.0, 90.0, 95.0, 99.0, 99.9})
        if (static_cast<double>(sessions.size()) * (100 - pct) / 100 >=
            10)
            tail_pct = pct;

    auto ms = [&](Layer l) { return sum.msOf(l); };
    auto work = [&](Layer l) {
        return static_cast<double>(sum.workOf(l));
    };
    const double attributed = sum.totalMs() + run.hostBootMs;
    rep.layers = {
        {"crypto.seal_ms", ms(Layer::CryptoSeal)},
        {"crypto.seal_bytes", work(Layer::CryptoSeal)},
        {"crypto.open_ms", ms(Layer::CryptoOpen)},
        {"crypto.open_bytes", work(Layer::CryptoOpen)},
        {"gpu.ocb_ms", ms(Layer::GpuOcb)},
        {"gpu.ocb_bytes", work(Layer::GpuOcb)},
        {"gpu.kernel_ms", ms(Layer::GpuKernel)},
        {"gpu.kernel_ops", work(Layer::GpuKernel)},
        {"hix.ipc_ms", ms(Layer::HixIpc)},
        {"hix.ipc_msgs", work(Layer::HixIpc)},
        {"mem.stage_ms", ms(Layer::MemStage)},
        {"mem.stage_bytes", work(Layer::MemStage)},
        {"pcie.xfer_ms", ms(Layer::PcieXfer)},
        {"pcie.xfer_bytes", work(Layer::PcieXfer)},
        {"sgx.init_ms", ms(Layer::SgxInit)},
        {"os.boot_ms", run.hostBootMs},
        {"workloads.app_ms", ms(Layer::App)},
        {"workloads.record_ms", run.hostRecordMs},
        {"workloads.record_threads", threads},
        {"workloads.imbalance",
         busy > 0 ? run.hostRecordMs / (busy / threads) : 0},
        {"sim.schedule_ms", schedule_ms},
        {"sim.merge_ms", run.hostScheduleMs - schedule_ms},
        {"sim.ops", static_cast<double>(run.trace->size())},
        {"session.host_p50_ms", percentileMs(sessions, 50)},
        {"session.host_tail_ms", percentileMs(sessions, tail_pct)},
        {"session.host_tail_pct", tail_pct},
        {"trace.coverage", busy > 0 ? attributed / busy : 0},
    };
}

void
finishRep(Rep &rep, const workloads::RunOutcome &run)
{
    rep.setupS = run.hostBootMs / 1000.0;
    rep.ops = run.schedule.finish.size();
    rep.ticks = run.ticks;
    rep.digest = sim::traceDigest(*run.trace);
}

Rep
runServiceRep(const Spec &spec, std::uint64_t seed, bool traced)
{
    Rep rep;
    const svc::ServiceConfig cfg = serviceConfig(spec, seed);
    const double cpu0 = cpuSeconds();
    const double start = nowMs();
    if (!traced) {
        auto out = svc::runService(cfg);
        rep.wallS = (nowMs() - start) / 1000.0;
        rep.cpuS = cpuSeconds() - cpu0;
        if (!out.isOk()) {
            rep.status = out.status();
            return rep;
        }
        finishRep(rep, out->pool.run);
        rep.p50 = out->p50;
        rep.p95 = out->p95;
        rep.p99 = out->p99;
        return rep;
    }

    // Traced: the stages of svc::runService, from public calls, with
    // spans around the probes and the plan and every pool session's
    // workload wrapped.
    Tracer tracer;
    std::vector<Tick> demand;
    for (const auto &app : cfg.appMix) {
        workloads::RunConfig probe = cfg.run;
        probe.factory = [app] { return workloads::makeRodinia(app); };
        probe.users = 1;
        probe.useHix = cfg.useHix;
        probe.machine.gpuCount = 1;
        probe.keepTrace = false;
        auto solo = workloads::runWorkload(probe);
        if (!solo.isOk()) {
            rep.status = solo.status();
            return rep;
        }
        demand.push_back(solo->ticks);
    }
    const double plan_start = nowMs();
    auto plan = svc::planService(cfg, demand);
    const double plan_end = nowMs();
    if (!plan.isOk()) {
        rep.status = plan.status();
        return rep;
    }
    std::vector<workloads::PoolSession> sessions;
    for (const svc::SessionPlan &s : plan->sessions) {
        workloads::PoolSession ps;
        ps.device = s.device;
        ps.admitTick = s.admit;
        ps.appId = s.appIndex;
        const std::string app = cfg.appMix[s.appIndex];
        ps.factory = tracer.wrap(
            [app] { return workloads::makeRodinia(app); });
        sessions.push_back(std::move(ps));
    }
    workloads::RunConfig rc = cfg.run;
    rc.useHix = cfg.useHix;
    rc.machine.gpuCount = cfg.devices;
    rc.factory = tracer.wrap([app = cfg.appMix.front()] {
        return workloads::makeRodinia(app);
    });
    rc.shardHook = tracer.hook();
    auto pool = workloads::runSessionPool(rc, sessions);
    if (!pool.isOk()) {
        rep.status = pool.status();
        return rep;
    }
    std::vector<Tick> latency;
    for (std::size_t i = 0; i < plan->sessions.size(); ++i)
        latency.push_back(pool->sessionFinish[i] -
                          plan->sessions[i].arrival);
    rep.p50 = svc::percentileTick(latency, 50);
    rep.p95 = svc::percentileTick(latency, 95);
    rep.p99 = svc::percentileTick(latency, 99);
    rep.wallS = (nowMs() - start) / 1000.0;
    rep.cpuS = cpuSeconds() - cpu0;
    finishRep(rep, pool->run);
    addLayers(rep, tracer, pool->run);
    rep.layers.emplace_back("svc.probe_ms", plan_start - start);
    rep.layers.emplace_back("svc.plan_ms", plan_end - plan_start);
    return rep;
}

Rep
runBatch(const Spec &spec, bool traced)
{
    Rep rep;
    workloads::RunConfig rc = batchConfig(spec);
    Tracer tracer;
    if (traced) {
        rc.factory = tracer.wrap(rc.factory);
        rc.shardHook = tracer.hook();
    }
    const double cpu0 = cpuSeconds();
    const double start = nowMs();
    auto out = workloads::runWorkload(rc);
    rep.wallS = (nowMs() - start) / 1000.0;
    rep.cpuS = cpuSeconds() - cpu0;
    if (!out.isOk()) {
        rep.status = out.status();
        return rep;
    }
    finishRep(rep, *out);
    if (traced) {
        addLayers(rep, tracer, *out);
        rep.layers.emplace_back("svc.probe_ms", 0.0);
        rep.layers.emplace_back("svc.plan_ms", 0.0);
    }
    return rep;
}

Rep
runRep(const Spec &spec, std::uint64_t seed, bool traced)
{
    return spec.service ? runServiceRep(spec, seed, traced)
                        : runBatch(spec, traced);
}

void
printRep(const Rep &rep, int index, bool warmup, bool traced,
         std::uint64_t seed)
{
    std::string error = rep.status.isOk() ? "" : rep.status.toString();
    for (char &c : error)
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
            c = ' ';
    std::printf("{\"type\": \"rep\", \"rep\": %d, \"warmup\": %s, "
                "\"traced\": %s, \"seed\": %" PRIu64 ", \"ok\": %s, "
                "\"error\": \"%s\", \"wall_s\": %.9f, \"cpu_s\": %.9f, "
                "\"setup_s\": %.9f, \"ops\": %" PRIu64
                ", \"ticks\": %" PRIu64 ", \"p50\": %" PRIu64
                ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64
                ", \"digest\": \"0x%016" PRIx64 "\"",
                index, warmup ? "true" : "false",
                traced ? "true" : "false", seed,
                rep.status.isOk() ? "true" : "false", error.c_str(),
                rep.wallS, rep.cpuS, rep.setupS, rep.ops,
                static_cast<std::uint64_t>(rep.ticks),
                static_cast<std::uint64_t>(rep.p50),
                static_cast<std::uint64_t>(rep.p95),
                static_cast<std::uint64_t>(rep.p99), rep.digest);
    if (!rep.layers.empty()) {
        std::printf(", \"layers\": {");
        for (std::size_t i = 0; i < rep.layers.size(); ++i)
            std::printf("%s\"%s\": %.9g", i ? ", " : "",
                        rep.layers[i].first.c_str(),
                        rep.layers[i].second);
        std::printf("}");
    }
    std::printf("}\n");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e --selftest\n"
                 "       bench_e2e --workload NAME [--seed S] "
                 "[--seconds T] [--trace 0|1]\n"
                 "workloads:");
    for (const Spec &s : kSpecs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseU64(const char *text, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    *out = v;
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Spec *spec = nullptr;
    std::uint64_t seed = DefaultSeed;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            const bool ok = selfTest();
            std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
            return ok ? 0 : 1;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload") {
            for (const Spec &s : kSpecs)
                if (std::strcmp(s.name, value) == 0)
                    spec = &s;
            if (!spec)
                return usage();
        } else if (arg == "--seed") {
            if (!parseU64(value, &seed))
                return usage();
        } else if (arg == "--seconds") {
            if (!parseU64(value, &seconds) || seconds > 3600)
                return usage();
        } else if (arg == "--trace") {
            if (!parseU64(value, &trace) || trace > 1)
                return usage();
        } else {
            return usage();
        }
    }
    if (!spec)
        return usage();

    std::printf("{\"type\": \"process\", \"workload\": \"%s\", "
                "\"hardware_threads\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}\n",
                spec->name, std::thread::hardware_concurrency(),
                __VERSION__,
#ifdef NDEBUG
                "Release"
#else
                "Debug"
#endif
    );

    // Untimed warm-up at the pinned seed: fills caches and allocator
    // pools, and checks the pins whatever seed is timed.
    printRep(runRep(*spec, DefaultSeed, false), 0, true, false,
             DefaultSeed);

    // Timed repetitions; with tracing, untraced and traced alternate so
    // host drift hits both alike.
    constexpr int MinReps = 3;
    const double deadline = nowMs() + static_cast<double>(seconds) * 1e3;
    int untraced = 0;
    int traced = 0;
    for (int i = 1;; ++i) {
        const bool traced_rep = trace && (i % 2 == 0);
        printRep(runRep(*spec, seed, traced_rep), i, false, traced_rep,
                 seed);
        (traced_rep ? traced : untraced)++;
        const bool enough = untraced >= MinReps &&
                            (!trace || traced >= MinReps - 1);
        if (enough && nowMs() >= deadline)
            break;
    }
    std::printf("{\"type\": \"end\", \"peak_rss_mb\": %.6f}\n",
                peakRssMb());
    return 0;
}
