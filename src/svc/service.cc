#include "svc/service.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "common/rng.h"
#include "os/machine.h"
#include "workloads/workload.h"

namespace hix::svc
{

namespace
{

/** Max simultaneous waiters given (enter, leave) intervals; a leave
 * at tick t frees its slot before an enter at t occupies one. */
int
maxOverlap(std::vector<std::pair<Tick, int>> events)
{
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    int depth = 0;
    int peak = 0;
    for (const auto &[tick, delta] : events) {
        depth += delta;
        peak = std::max(peak, depth);
    }
    return peak;
}

}  // namespace

const char *
policyName(Policy policy)
{
    switch (policy) {
    case Policy::RoundRobin:
        return "round_robin";
    case Policy::LeastLoaded:
        return "least_loaded";
    case Policy::Affinity:
        return "affinity";
    }
    return "unknown";
}

Result<ServicePlan>
planService(const ServiceConfig &config,
            const std::vector<Tick> &demandTicks)
{
    ServicePlan plan;
    if (config.sessions <= 0)
        return plan;  // zero-session stream: empty plan, any pool
    if (config.devices <= 0)
        return errInvalidArgument("pool has no devices");
    if (config.appMix.empty())
        return errInvalidArgument("empty app mix");
    if (demandTicks.size() != config.appMix.size())
        return errInvalidArgument(
            "demand estimates do not match the app mix");

    const int n = config.sessions;
    const int devices = config.devices;
    Rng rng(config.seed);

    // Arrival process: open loop, uniform gaps on [1, 2*mean]; a
    // closed batch (mean 0) arrives all at tick 0. App and user are
    // drawn per session from the same stream, so the plan is a pure
    // function of the seed.
    plan.sessions.resize(n);
    Tick clock = 0;
    for (int i = 0; i < n; ++i) {
        SessionPlan &s = plan.sessions[i];
        if (config.meanInterarrivalTicks > 0) {
            clock += 1 + rng.nextBelow(2 * config.meanInterarrivalTicks);
            s.arrival = clock;
        }
        s.appIndex =
            static_cast<int>(rng.nextBelow(config.appMix.size()));
        s.user = config.userPopulation > 0
                     ? static_cast<int>(
                           rng.nextBelow(config.userPopulation))
                     : i;
    }

    // Admission FIFO against the bounded session table, then
    // placement. The queueing model estimates each device's backlog
    // with freeAt[d]: sessions on a device serve in admission order,
    // so session start = max(admit, freeAt) and completion = start +
    // demand. The estimates feed table-slot recycling (bounded
    // table), the least-loaded metric, and the dispatch-queue depth
    // statistic; the real schedule is computed later by the timing
    // engine from the recorded trace.
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        active;  // estimated completions of admitted sessions
    std::vector<Tick> freeAt(devices, 0);
    std::unordered_map<int, int> userDevice;  // affinity memory
    std::vector<std::pair<Tick, int>> admitWait;
    std::vector<std::vector<std::pair<Tick, int>>> dispatchWait(
        devices);
    plan.perDeviceSessions.assign(devices, 0);

    auto leastLoaded = [&](Tick admit) {
        int best = 0;
        Tick bestBacklog = 0;
        for (int d = 0; d < devices; ++d) {
            const Tick backlog =
                freeAt[d] > admit ? freeAt[d] - admit : 0;
            if (d == 0 || backlog < bestBacklog) {
                best = d;
                bestBacklog = backlog;
            }
        }
        return best;
    };

    for (int i = 0; i < n; ++i) {
        SessionPlan &s = plan.sessions[i];
        s.admit = s.arrival;
        if (config.tableCap > 0) {
            while (!active.empty() && active.top() <= s.arrival)
                active.pop();
            while (static_cast<int>(active.size()) >=
                   config.tableCap) {
                s.admit = std::max(s.admit, active.top());
                active.pop();
            }
        }
        switch (config.policy) {
        case Policy::RoundRobin:
            s.device = i % devices;
            break;
        case Policy::LeastLoaded:
            s.device = leastLoaded(s.admit);
            break;
        case Policy::Affinity: {
            auto it = userDevice.find(s.user);
            s.device = it != userDevice.end()
                           ? it->second
                           : leastLoaded(s.admit);
            userDevice.emplace(s.user, s.device);
            break;
        }
        }
        const Tick demand = demandTicks[s.appIndex];
        const Tick start = std::max(s.admit, freeAt[s.device]);
        freeAt[s.device] = start + demand;
        if (config.tableCap > 0)
            active.push(freeAt[s.device]);
        plan.perDeviceSessions[s.device]++;
        if (s.admit > s.arrival) {
            admitWait.emplace_back(s.arrival, +1);
            admitWait.emplace_back(s.admit, -1);
        }
        dispatchWait[s.device].emplace_back(s.admit, +1);
        dispatchWait[s.device].emplace_back(start, -1);
    }

    plan.admitQueueDepthMax = maxOverlap(std::move(admitWait));
    plan.queueDepthMax.resize(devices);
    for (int d = 0; d < devices; ++d)
        plan.queueDepthMax[d] =
            maxOverlap(std::move(dispatchWait[d]));
    return plan;
}

Tick
percentileTick(std::vector<Tick> sample, int pct)
{
    if (sample.empty())
        return 0;
    std::sort(sample.begin(), sample.end());
    const std::size_t rank =
        (sample.size() * static_cast<std::size_t>(pct) + 99) / 100;
    return sample[rank == 0 ? 0 : rank - 1];
}

std::vector<double>
deviceUtilization(const sim::ScheduleResult &schedule,
                  const os::MachineConfig &machine, int devices)
{
    const std::uint32_t queues = std::max<std::uint32_t>(
        1, machine.timing.gpuConcurrentContexts);
    std::vector<double> util(std::max(devices, 0), 0.0);
    if (schedule.makespan == 0)
        return util;
    for (const auto &[res, usage] : schedule.usage) {
        if (res.unit != sim::ResUnit::GpuCompute)
            continue;
        const int device = static_cast<int>(res.index / queues);
        if (device < devices)
            util[device] += static_cast<double>(usage.busy);
    }
    for (double &u : util)
        u /= static_cast<double>(queues) *
             static_cast<double>(schedule.makespan);
    return util;
}

std::vector<double>
dmaChannelUtilization(const sim::ScheduleResult &schedule,
                      const os::MachineConfig &machine, int devices,
                      sim::ResUnit unit)
{
    const std::uint32_t channels = std::max<std::uint32_t>(
        1, machine.timing.gpuDmaChannels);
    std::vector<double> util(
        static_cast<std::size_t>(std::max(devices, 0)) * channels,
        0.0);
    if (schedule.makespan == 0)
        return util;
    for (const auto &[res, usage] : schedule.usage) {
        if (res.unit != unit)
            continue;
        if (res.index < util.size())
            util[res.index] += static_cast<double>(usage.busy) /
                               static_cast<double>(schedule.makespan);
    }
    return util;
}

Result<ServiceOutcome>
runService(const ServiceConfig &config)
{
    if (config.sessions <= 0)
        return errInvalidArgument("no sessions to serve");
    if (config.devices <= 0)
        return errInvalidArgument("pool has no devices");
    for (const auto &app : config.appMix)
        if (!workloads::makeRodinia(app))
            return errInvalidArgument("unknown app in mix: " + app);
    // Refuse a pool the machine cannot hold before any probe runs.
    os::MachineConfig pool_machine = config.run.machine;
    pool_machine.gpuCount = config.devices;
    HIX_RETURN_IF_ERROR(os::Machine::checkLayout(pool_machine));

    ServiceOutcome out;

    // Demand probe: one solo run per app in the mix, on a 1-GPU
    // machine with the stream's runtime. The estimate only steers
    // admission and placement; the pool's actual timing comes from
    // the recorded trace.
    out.demandTicks.reserve(config.appMix.size());
    for (const auto &app : config.appMix) {
        workloads::RunConfig probe = config.run;
        probe.factory = [app] { return workloads::makeRodinia(app); };
        probe.users = 1;
        probe.useHix = config.useHix;
        probe.machine.gpuCount = 1;
        probe.keepTrace = false;
        probe.traceJsonPath.clear();
        auto solo = workloads::runWorkload(probe);
        if (!solo.isOk())
            return solo.status();
        out.demandTicks.push_back(solo->ticks);
    }

    auto plan = planService(config, out.demandTicks);
    if (!plan.isOk())
        return plan.status();
    out.plan = std::move(*plan);

    std::vector<workloads::PoolSession> sessions;
    sessions.reserve(out.plan.sessions.size());
    for (const SessionPlan &s : out.plan.sessions) {
        workloads::PoolSession ps;
        ps.device = s.device;
        ps.admitTick = s.admit;
        ps.appId = s.appIndex;
        const std::string app = config.appMix[s.appIndex];
        ps.factory = [app] { return workloads::makeRodinia(app); };
        sessions.push_back(std::move(ps));
    }

    workloads::RunConfig rc = config.run;
    rc.useHix = config.useHix;
    rc.machine.gpuCount = config.devices;
    rc.factory = [app = config.appMix.front()] {
        return workloads::makeRodinia(app);
    };
    auto pool = workloads::runSessionPool(rc, sessions);
    if (!pool.isOk())
        return pool.status();
    out.pool = std::move(*pool);

    out.latency.reserve(out.plan.sessions.size());
    for (std::size_t i = 0; i < out.plan.sessions.size(); ++i)
        out.latency.push_back(out.pool.sessionFinish[i] -
                              out.plan.sessions[i].arrival);
    out.p50 = percentileTick(out.latency, 50);
    out.p95 = percentileTick(out.latency, 95);
    out.p99 = percentileTick(out.latency, 99);
    out.deviceUtil = deviceUtilization(out.pool.run.schedule,
                                       rc.machine, config.devices);
    out.dmaHtoDUtil =
        dmaChannelUtilization(out.pool.run.schedule, rc.machine,
                              config.devices, sim::ResUnit::DmaHtoD);
    out.dmaDtoHUtil =
        dmaChannelUtilization(out.pool.run.schedule, rc.machine,
                              config.devices, sim::ResUnit::DmaDtoH);
    return out;
}

}  // namespace hix::svc
