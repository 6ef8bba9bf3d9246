#include "sim/scheduler.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "common/logging.h"

namespace hix::sim
{

namespace
{

struct ResState
{
    Tick freeAt = 0;
    GpuContextId lastCtx = NoGpuContext;
};

}  // namespace

ScheduleResult
scheduleReference(const Trace &trace, const SchedulerConfig &config)
{
    const auto &ops = trace.ops();
    const std::size_t n = ops.size();

    ScheduleResult res;
    res.start.assign(n, 0);
    res.finish.assign(n, 0);
    if (n == 0)
        return res;

    std::vector<std::uint32_t> pending_deps(n, 0);
    std::vector<std::vector<OpId>> dependents(n);
    std::vector<Tick> ready_time(n, 0);
    for (const Op &op : ops) {
        pending_deps[op.id] = op.depCount;
        for (OpId d : trace.deps(op))
            dependents[d].push_back(op.id);
    }

    std::vector<OpId> ready;
    ready.reserve(64);
    for (const Op &op : ops)
        if (pending_deps[op.id] == 0)
            ready.push_back(op.id);

    std::unordered_map<ResourceId, ResState, ResourceIdHash> rstate;
    std::size_t scheduled = 0;

    while (!ready.empty()) {
        // Pick the ready op with the smallest dispatch time, i.e.
        // max(ready, engine free) *before* any switch penalty: real
        // hardware switches away the moment the resident context has
        // nothing pending — it cannot wait for work that will arrive
        // a few microseconds later. The resident context only wins
        // ties (the Fermi policy: run the current context while it
        // has pending requests).
        std::size_t best_idx = 0;
        Tick best_eff = MaxTick;
        bool best_resident = false;
        for (std::size_t i = 0; i < ready.size(); ++i) {
            const Op &op = ops[ready[i]];
            const ResState &rs = rstate[op.resource];
            const Tick eff = std::max(ready_time[op.id], rs.freeAt);
            const bool resident =
                op.resource.unit != ResUnit::GpuCompute ||
                op.gpuCtx == NoGpuContext ||
                rs.lastCtx == NoGpuContext || rs.lastCtx == op.gpuCtx;
            const bool better =
                eff < best_eff ||
                (eff == best_eff &&
                 ((resident && !best_resident) ||
                  (resident == best_resident &&
                   ready[i] < ready[best_idx])));
            if (better) {
                best_eff = eff;
                best_idx = i;
                best_resident = resident;
            }
        }

        const OpId id = ready[best_idx];
        ready.erase(ready.begin() + best_idx);
        const Op &op = ops[id];
        ResState &rs = rstate[op.resource];

        Tick start = std::max(ready_time[id], rs.freeAt);
        if (op.resource.unit == ResUnit::GpuCompute &&
            op.gpuCtx != NoGpuContext) {
            if (rs.lastCtx != NoGpuContext && rs.lastCtx != op.gpuCtx) {
                start += config.gpuCtxSwitchTicks;
                ++res.gpuCtxSwitches;
            }
            rs.lastCtx = op.gpuCtx;
        }

        const Tick finish = start + op.duration;
        res.start[id] = start;
        res.finish[id] = finish;
        rs.freeAt = finish;
        res.makespan = std::max(res.makespan, finish);

        ResourceUsage &use = res.usage[op.resource];
        use.busy += op.duration;
        use.lastFree = std::max(use.lastFree, finish);
        ++use.ops;
        res.kindBusy[op.kind] += op.duration;

        for (OpId dep_id : dependents[id]) {
            ready_time[dep_id] = std::max(ready_time[dep_id], finish);
            if (--pending_deps[dep_id] == 0)
                ready.push_back(dep_id);
        }
        ++scheduled;
    }

    if (scheduled != n)
        hix_panic("scheduler: dependency cycle, scheduled ", scheduled,
                  " of ", n, " ops");
    return res;
}

// ---------------------------------------------------------------------------
// O(n log n) engine.
//
// The reference scan above is the specification: on every iteration
// it commits the ready op minimising the key
//
//     (eff = max(ready_time, freeAt), !resident, op id)
//
// lexicographically. The fast engine reproduces that exact total
// order with per-resource pending queues and a global heap that holds
// ONE versioned candidate per resource:
//
//  - Ops waiting on a resource split into a `future` min-heap (keyed
//    by ready_time, for ops whose ready_time exceeds the resource's
//    freeAt) and a backlog (ready_time <= freeAt, so every backlog op
//    ties at eff == freeAt). The backlog keeps a min-id heap of all
//    ops plus, on GPU compute engines, one min-id heap per context so
//    the resident-context winner is an O(1) peek.
//  - A resource's candidate is its key-minimal pending op: the
//    backlog winner at eff == freeAt if the backlog is non-empty,
//    else the minimal-ready_time future op (ties broken resident
//    first, then min id).
//  - Whenever an event changes a resource's state (an op commits on
//    it, bumping freeAt/lastCtx, or a newly-ready op arrives), the
//    resource's version counter is bumped and a fresh candidate is
//    pushed; stale heap entries are discarded on pop. Committed ops
//    are lazily purged from the pending heaps via a done[] flag.
//
// Since resource state is immutable between the refresh that pushed a
// candidate and the pop that commits it, every pop of a current-
// version entry commits exactly the op the reference scan would pick,
// so the two engines produce bit-identical schedules (golden tests
// enforce this).
// ---------------------------------------------------------------------------

namespace
{

using IdHeap =
    std::priority_queue<OpId, std::vector<OpId>, std::greater<OpId>>;

struct FutureEnt
{
    Tick rt;
    OpId id;
};

struct FutureGreater
{
    bool
    operator()(const FutureEnt &a, const FutureEnt &b) const
    {
        return a.rt != b.rt ? a.rt > b.rt : a.id > b.id;
    }
};

using FutureHeap =
    std::priority_queue<FutureEnt, std::vector<FutureEnt>, FutureGreater>;

/** One candidate in the global heap; stale when version mismatches. */
struct HeapEnt
{
    Tick eff;
    OpId id;
    std::uint32_t res;
    std::uint64_t version;
    bool notResident;
};

struct HeapGreater
{
    bool
    operator()(const HeapEnt &a, const HeapEnt &b) const
    {
        if (a.eff != b.eff)
            return a.eff > b.eff;
        if (a.notResident != b.notResident)
            return a.notResident && !b.notResident;
        return a.id > b.id;
    }
};

struct ResSched
{
    Tick freeAt = 0;
    GpuContextId lastCtx = NoGpuContext;
    bool isGpu = false;
    std::uint64_t version = 0;
    FutureHeap future;
    IdHeap backlog;
    /** GPU engines only: backlog split per context (ctx-less ops
     *  bucket under NoGpuContext, they are always resident). */
    std::unordered_map<GpuContextId, IdHeap> byCtx;
};

}  // namespace

ScheduleResult
schedule(const Trace &trace, const SchedulerConfig &config)
{
    const auto &ops = trace.ops();
    const std::size_t n = ops.size();

    ScheduleResult res;
    res.start.assign(n, 0);
    res.finish.assign(n, 0);
    if (n == 0)
        return res;

    // Dense resource table: hash each distinct ResourceId once, then
    // the hot loop runs on small integer indices only.
    std::unordered_map<ResourceId, std::uint32_t, ResourceIdHash>
        res_index;
    std::vector<ResourceId> resources;
    std::vector<std::uint32_t> res_of(n);
    for (const Op &op : ops) {
        auto [it, inserted] = res_index.try_emplace(
            op.resource, static_cast<std::uint32_t>(resources.size()));
        if (inserted)
            resources.push_back(op.resource);
        res_of[op.id] = it->second;
    }
    const std::size_t nres = resources.size();

    // Dependents as CSR; duplicates kept (each occurrence counts one
    // pending slot, exactly as the reference builds them).
    std::vector<std::uint32_t> pending(n);
    std::vector<std::uint32_t> dep_off(n + 1, 0);
    std::size_t edges = 0;
    for (const Op &op : ops) {
        pending[op.id] = op.depCount;
        edges += op.depCount;
        for (OpId d : trace.deps(op))
            ++dep_off[d + 1];
    }
    for (std::size_t i = 0; i < n; ++i)
        dep_off[i + 1] += dep_off[i];
    std::vector<OpId> dependents(edges);
    {
        std::vector<std::uint32_t> cursor(dep_off.begin(),
                                          dep_off.end() - 1);
        for (const Op &op : ops)
            for (OpId d : trace.deps(op))
                dependents[cursor[d]++] = op.id;
    }

    std::vector<Tick> ready_time(n, 0);
    std::vector<char> done(n, 0);

    std::vector<ResSched> rs(nres);
    for (std::size_t r = 0; r < nres; ++r)
        rs[r].isGpu = resources[r].unit == ResUnit::GpuCompute;

    std::priority_queue<HeapEnt, std::vector<HeapEnt>, HeapGreater>
        gheap;
    std::vector<FutureEnt> tie_buf;

    auto purgeIds = [&](IdHeap &h) {
        while (!h.empty() && done[h.top()])
            h.pop();
    };
    auto purgeFuture = [&](FutureHeap &h) {
        while (!h.empty() && done[h.top().id])
            h.pop();
    };

    auto pushPending = [&](std::uint32_t ridx, OpId id) {
        ResSched &r = rs[ridx];
        if (ready_time[id] > r.freeAt) {
            r.future.push({ready_time[id], id});
        } else {
            r.backlog.push(id);
            if (r.isGpu)
                r.byCtx[ops[id].gpuCtx].push(id);
        }
    };

    // Recompute resource ridx's candidate and push it with a fresh
    // version; called after every event that touches the resource.
    auto refresh = [&](std::uint32_t ridx) {
        ResSched &r = rs[ridx];
        ++r.version;

        // Future ops whose ready_time the resource has caught up with
        // become backlog (they now tie at eff == freeAt).
        purgeFuture(r.future);
        while (!r.future.empty() && r.future.top().rt <= r.freeAt) {
            const OpId id = r.future.top().id;
            r.future.pop();
            r.backlog.push(id);
            if (r.isGpu)
                r.byCtx[ops[id].gpuCtx].push(id);
            purgeFuture(r.future);
        }

        purgeIds(r.backlog);
        if (!r.backlog.empty()) {
            bool resident = true;
            OpId best = InvalidOpId;
            if (!r.isGpu || r.lastCtx == NoGpuContext) {
                best = r.backlog.top();
            } else {
                for (GpuContextId key : {r.lastCtx, NoGpuContext}) {
                    auto it = r.byCtx.find(key);
                    if (it == r.byCtx.end())
                        continue;
                    purgeIds(it->second);
                    if (!it->second.empty())
                        best = std::min(best, it->second.top());
                }
                if (best == InvalidOpId) {
                    best = r.backlog.top();
                    resident = false;
                }
            }
            gheap.push({r.freeAt, best, ridx, r.version, !resident});
            return;
        }

        if (r.future.empty())
            return;
        // All candidates tie at eff == minimal ready_time; resident
        // ops win, then min id. The tied group is tiny in practice
        // (distinct dep finish times), so pop-and-push-back is cheap.
        const Tick rt_min = r.future.top().rt;
        tie_buf.clear();
        OpId best = InvalidOpId;
        bool best_res = false;
        while (!r.future.empty() && r.future.top().rt == rt_min) {
            const FutureEnt e = r.future.top();
            r.future.pop();
            if (done[e.id])
                continue;
            tie_buf.push_back(e);
            const Op &op = ops[e.id];
            const bool resident = !r.isGpu ||
                                  op.gpuCtx == NoGpuContext ||
                                  r.lastCtx == NoGpuContext ||
                                  r.lastCtx == op.gpuCtx;
            if (best == InvalidOpId || (resident && !best_res) ||
                (resident == best_res && e.id < best)) {
                best = e.id;
                best_res = resident;
            }
        }
        for (const FutureEnt &e : tie_buf)
            r.future.push(e);
        gheap.push({rt_min, best, ridx, r.version, !best_res});
    };

    // Dedup buffer so one commit refreshes each touched resource once.
    std::vector<char> touched(nres, 0);
    std::vector<std::uint32_t> touched_list;
    touched_list.reserve(8);
    auto touch = [&](std::uint32_t ridx) {
        if (!touched[ridx]) {
            touched[ridx] = 1;
            touched_list.push_back(ridx);
        }
    };
    auto refreshTouched = [&] {
        for (std::uint32_t ridx : touched_list) {
            touched[ridx] = 0;
            refresh(ridx);
        }
        touched_list.clear();
    };

    for (const Op &op : ops) {
        if (pending[op.id] == 0) {
            pushPending(res_of[op.id], op.id);
            touch(res_of[op.id]);
        }
    }
    refreshTouched();

    // Usage accumulates in dense arrays; the result's std::maps are
    // filled once at the end.
    std::vector<Tick> busy(nres, 0), last_free(nres, 0);
    std::vector<std::uint64_t> op_count(nres, 0);
    Tick kind_busy[OpKindCount] = {};
    bool kind_seen[OpKindCount] = {};

    std::size_t scheduled = 0;
    while (!gheap.empty()) {
        const HeapEnt e = gheap.top();
        gheap.pop();
        ResSched &r = rs[e.res];
        if (e.version != r.version)
            continue;
        const Op &op = ops[e.id];

        Tick start = std::max(ready_time[e.id], r.freeAt);
        if (r.isGpu && op.gpuCtx != NoGpuContext) {
            if (r.lastCtx != NoGpuContext && r.lastCtx != op.gpuCtx) {
                start += config.gpuCtxSwitchTicks;
                ++res.gpuCtxSwitches;
            }
            r.lastCtx = op.gpuCtx;
        }

        const Tick finish = start + op.duration;
        res.start[e.id] = start;
        res.finish[e.id] = finish;
        r.freeAt = finish;
        res.makespan = std::max(res.makespan, finish);

        busy[e.res] += op.duration;
        last_free[e.res] = std::max(last_free[e.res], finish);
        ++op_count[e.res];
        const auto k = static_cast<std::size_t>(op.kind);
        kind_busy[k] += op.duration;
        kind_seen[k] = true;

        done[e.id] = 1;
        ++scheduled;
        touch(e.res);

        for (std::uint32_t i = dep_off[e.id]; i < dep_off[e.id + 1];
             ++i) {
            const OpId dep = dependents[i];
            ready_time[dep] = std::max(ready_time[dep], finish);
            if (--pending[dep] == 0) {
                pushPending(res_of[dep], dep);
                touch(res_of[dep]);
            }
        }
        refreshTouched();
    }

    if (scheduled != n)
        hix_panic("scheduler: dependency cycle, scheduled ", scheduled,
                  " of ", n, " ops");

    for (std::size_t r = 0; r < nres; ++r) {
        ResourceUsage &use = res.usage[resources[r]];
        use.busy = busy[r];
        use.lastFree = last_free[r];
        use.ops = op_count[r];
    }
    for (std::size_t k = 0; k < OpKindCount; ++k)
        if (kind_seen[k])
            res.kindBusy[static_cast<OpKind>(k)] = kind_busy[k];
    return res;
}

ScheduleResult
scheduleWith(SchedulerEngine engine, const Trace &trace,
             const SchedulerConfig &config)
{
    if (engine == SchedulerEngine::Reference)
        return scheduleReference(trace, config);
    return schedule(trace, config);
}

}  // namespace hix::sim
