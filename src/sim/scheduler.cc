#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <queue>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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

// ---------------------------------------------------------------------------
// Lean core for the streaming front-end.
//
// StreamingScheduler scores each shard's private components at intake
// and the cross-shard groups at the final join with a cache-lean
// re-implementation of schedule()'s commit loop. All per-op state
// lives in one 24-byte record (HotOp); the per-resource candidate is
// a cache that a single arrival merges into in O(1) (it is exactly
// the candLess-min refresh() would compute), and a full refresh only
// runs after a commit on that resource, because lastCtx/freeAt — the
// only inputs that can invalidate other entries' candidates — change
// only then. The op's start time is written back into the dead ready
// slot at commit; finish = start + dur is recomputed when the result
// is unzipped. A resource-connected component never interacts with
// another (per-resource state is only mutated by that resource's
// commits, and cross-resource influence travels only along dependency
// edges), so the join's independent groups run on a worker pool and
// every output field stays bit-identical to schedule().
//
// Traces whose shape exceeds the packed-field limits of HotOp (2^32
// durations, 2^16 deps per op, 2^16 resources or GPU contexts) fall
// back to schedule() wholesale.
// ---------------------------------------------------------------------------

// Named (not anonymous) so StreamingScheduler::Impl — an externally
// visible type — can hold these without -Wsubobject-linkage noise;
// the namespace is still private to this translation unit in
// practice (nothing declares it elsewhere).
namespace par
{

struct HotOp
{
    Tick ready = 0;             // dep high-water; start after commit
    std::uint32_t dur = 0;
    std::uint32_t depOff = 0;   // dependents CSR begin
    std::uint16_t pending = 0;  // deps not yet committed
    std::uint16_t ctx = 0;      // dense gpu ctx (0 == none)
    std::uint16_t res = 0;      // dense resource (component-local)
    std::uint8_t kind = 0;
    std::uint8_t pad = 0;
};
static_assert(sizeof(HotOp) == 24);

/** Min-id queue tuned for the commit loop's near-sorted arrival
 *  order: ascending pushes append to a FIFO (O(1) push AND pop);
 *  the rare out-of-order id falls into a small binary heap. */
struct IdHeap
{
    std::vector<OpId> fifo;  // ascending run; live ids at [head, end)
    std::size_t head = 0;
    std::vector<OpId> ovf;   // min-heap of out-of-order arrivals
    bool
    empty() const
    {
        return head == fifo.size() && ovf.empty();
    }
    OpId
    top() const
    {
        if (head == fifo.size())
            return ovf[0];
        if (ovf.empty() || fifo[head] < ovf[0])
            return fifo[head];
        return ovf[0];
    }
    void
    push(OpId x)
    {
        if (head == fifo.size()) {
            fifo.clear();
            head = 0;
            fifo.push_back(x);
        } else if (x >= fifo.back()) {
            fifo.push_back(x);
        } else {
            ovf.push_back(x);
            std::push_heap(ovf.begin(), ovf.end(),
                           std::greater<OpId>{});
        }
    }
    void
    pop()
    {
        if (head != fifo.size() &&
            (ovf.empty() || fifo[head] < ovf[0])) {
            ++head;
            // Amortized compaction keeps the dead prefix bounded.
            if (head >= 4096 && head * 2 >= fifo.size()) {
                fifo.erase(fifo.begin(),
                           fifo.begin() +
                               static_cast<std::ptrdiff_t>(head));
                head = 0;
            }
        } else {
            std::pop_heap(ovf.begin(), ovf.end(),
                          std::greater<OpId>{});
            ovf.pop_back();
        }
    }
};

struct FutEnt
{
    Tick rt;
    OpId id;
};
struct FutGreater
{
    bool
    operator()(const FutEnt &a, const FutEnt &b) const
    {
        return a.rt != b.rt ? a.rt > b.rt : a.id > b.id;
    }
};
/** Min-(rt, id) queue with the same near-sorted-FIFO shape as IdHeap:
 *  producer finishes arrive in commit order, so per-resource pushes
 *  are (almost) nondecreasing and the common path is O(1). */
struct FutHeap
{
    std::vector<FutEnt> fifo;  // nondecreasing (rt, id) run
    std::size_t head = 0;
    std::vector<FutEnt> ovf;   // min-heap of out-of-order arrivals
    bool
    empty() const
    {
        return head == fifo.size() && ovf.empty();
    }
    const FutEnt &
    top() const
    {
        if (head == fifo.size())
            return ovf[0];
        if (ovf.empty() || !FutGreater{}(fifo[head], ovf[0]))
            return fifo[head];
        return ovf[0];
    }
    void
    push(FutEnt x)
    {
        if (head == fifo.size()) {
            fifo.clear();
            head = 0;
            fifo.push_back(x);
        } else if (!FutGreater{}(fifo.back(), x)) {
            fifo.push_back(x);
        } else {
            ovf.push_back(x);
            std::push_heap(ovf.begin(), ovf.end(), FutGreater{});
        }
    }
    void
    pop()
    {
        if (head != fifo.size() &&
            (ovf.empty() || !FutGreater{}(fifo[head], ovf[0]))) {
            ++head;
            if (head >= 4096 && head * 2 >= fifo.size()) {
                fifo.erase(fifo.begin(),
                           fifo.begin() +
                               static_cast<std::ptrdiff_t>(head));
                head = 0;
            }
        } else {
            std::pop_heap(ovf.begin(), ovf.end(), FutGreater{});
            ovf.pop_back();
        }
    }
    /** Remove the entry with op id @p id (the GPU residency tie-break
     *  can commit a non-minimal future entry). */
    void
    erase(OpId id)
    {
        for (std::size_t i = head; i < fifo.size(); ++i) {
            if (fifo[i].id == id) {
                fifo.erase(fifo.begin() +
                           static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
        for (std::size_t i = 0; i < ovf.size(); ++i) {
            if (ovf[i].id == id) {
                ovf[i] = ovf.back();
                ovf.pop_back();
                std::make_heap(ovf.begin(), ovf.end(), FutGreater{});
                return;
            }
        }
    }
};

struct Cand
{
    Tick eff = MaxTick;
    OpId id = InvalidOpId;
    std::uint8_t notResident = 0;
    std::uint8_t src = 0;  // 1 = backlog, 2 = future
};

inline bool
candLess(const Cand &a, const Cand &b)
{
    if (a.eff != b.eff)
        return a.eff < b.eff;
    if (a.notResident != b.notResident)
        return a.notResident < b.notResident;
    return a.id < b.id;
}

struct Res
{
    Tick freeAt = 0;
    std::uint32_t lastCtx = 0;  // dense; 0 == none
    bool isGpu = false;
    std::uint32_t backlogCount = 0;
    FutHeap future;
    IdHeap backlog;
    std::vector<IdHeap> byCtx;
};

/** Per-resource queues + candidate cache over a HotOp array. */
struct SchedState
{
    const HotOp *hot = nullptr;
    std::vector<Res> rs;
    std::vector<Cand> cand;
};

inline void
pushArrival(SchedState &s, std::uint32_t ridx, OpId id, Tick rt)
{
    Res &r = s.rs[ridx];
    Cand e;
    if (rt > r.freeAt) {
        r.future.push({rt, id});
        e = {rt, id, 0, 2};
    } else {
        ++r.backlogCount;
        if (r.isGpu)
            r.byCtx[s.hot[id].ctx].push(id);
        else
            r.backlog.push(id);
        e = {r.freeAt, id, 0, 1};
    }
    if (r.isGpu) {
        const std::uint32_t ctx = s.hot[id].ctx;
        e.notResident = ctx != 0 && r.lastCtx != 0 && r.lastCtx != ctx;
    }
    // refreshRes() computes the candLess-min over per-entry candidates
    // {max(rt, freeAt), notResident, id}; a single arrival therefore
    // merges in O(1).
    if (candLess(e, s.cand[ridx]))
        s.cand[ridx] = e;
}

inline void
refreshRes(SchedState &s, std::uint32_t ridx, std::vector<FutEnt> &tie_buf)
{
    Res &r = s.rs[ridx];
    while (!r.future.empty() && r.future.top().rt <= r.freeAt) {
        const OpId id = r.future.top().id;
        r.future.pop();
        ++r.backlogCount;
        if (r.isGpu)
            r.byCtx[s.hot[id].ctx].push(id);
        else
            r.backlog.push(id);
    }
    Cand c;
    if (r.backlogCount > 0) {
        if (!r.isGpu) {
            c = {r.freeAt, r.backlog.top(), 0, 1};
        } else if (r.lastCtx == 0) {
            OpId best = InvalidOpId;
            for (const IdHeap &h : r.byCtx)
                if (!h.empty())
                    best = std::min(best, h.top());
            c = {r.freeAt, best, 0, 1};
        } else {
            OpId best = InvalidOpId;
            const IdHeap &rh = r.byCtx[r.lastCtx];
            if (!rh.empty())
                best = rh.top();
            const IdHeap &nh = r.byCtx[0];
            if (!nh.empty())
                best = std::min(best, nh.top());
            if (best != InvalidOpId) {
                c = {r.freeAt, best, 0, 1};
            } else {
                for (const IdHeap &h : r.byCtx)
                    if (!h.empty())
                        best = std::min(best, h.top());
                c = {r.freeAt, best, 1, 1};
            }
        }
    } else if (!r.future.empty()) {
        if (!r.isGpu) {
            c = {r.future.top().rt, r.future.top().id, 0, 2};
        } else {
            // Earliest-ready tie group may mix resident and foreign
            // contexts; pop the group to rank it, then push it back.
            const Tick rt_min = r.future.top().rt;
            tie_buf.clear();
            OpId best = InvalidOpId;
            bool best_res = false;
            while (!r.future.empty() && r.future.top().rt == rt_min) {
                const FutEnt e = r.future.top();
                r.future.pop();
                tie_buf.push_back(e);
                const bool resident = s.hot[e.id].ctx == 0 ||
                                      r.lastCtx == 0 ||
                                      r.lastCtx == s.hot[e.id].ctx;
                if (best == InvalidOpId || (resident && !best_res) ||
                    (resident == best_res && e.id < best)) {
                    best = e.id;
                    best_res = resident;
                }
            }
            for (const FutEnt &e : tie_buf)
                r.future.push(e);
            c = {rt_min, best,
                 static_cast<std::uint8_t>(best_res ? 0 : 1), 2};
        }
    }
    s.cand[ridx] = c;
}

/** Remove candidate @p c (resource @p ridx's current pick) from its
 *  queue. */
inline void
popCand(SchedState &s, std::uint32_t ridx, const Cand &c)
{
    Res &r = s.rs[ridx];
    if (c.src == 1) {
        --r.backlogCount;
        if (r.isGpu)
            r.byCtx[s.hot[c.id].ctx].pop();
        else
            r.backlog.pop();
    } else if (r.future.top().id == c.id) {
        r.future.pop();
    } else {
        // Non-top future commit (GPU residency tie-break may pick a
        // non-minimal entry).
        r.future.erase(c.id);
    }
}

/**
 * One pass over the merged trace for the streaming join: dense
 * resource and context indices plus the lean-core eligibility gates.
 */
struct Prepared
{
    bool leanOk = true;
    std::uint32_t nres = 0;
    std::uint32_t nctx = 0;
    std::vector<ResourceId> resources;      // dense id -> ResourceId
    std::vector<std::uint8_t> gpuRes;       // dense id -> is GpuCompute
    std::vector<std::uint32_t> resOf;       // op -> dense resource
    std::vector<std::uint16_t> ctxOf;       // op -> dense ctx (0 = none)
};

/**
 * Tiny open-addressed 32-bit-key -> dense-index map. prepare() looks
 * up a resource and a context per op, so the table must stay in L1 —
 * unordered_map's per-node indirection costs more than the rest of
 * the per-op work combined on merged multi-user traces. A new key is
 * assigned the next dense index (== size() before the call), so the
 * caller detects insertion by comparing the returned value against
 * its own count. Values are bounded (<= 0x10000 by the lean gates),
 * so an all-ones slot can never be a live entry.
 */
class FlatIndex
{
public:
    FlatIndex() { slots_.assign(64, kEmpty); }

    std::uint32_t
    indexOf(std::uint32_t key)
    {
        std::uint32_t mask =
            static_cast<std::uint32_t>(slots_.size()) - 1;
        std::uint32_t i = (key * 0x9e3779b1u) & mask;
        while (slots_[i] != kEmpty) {
            if (static_cast<std::uint32_t>(slots_[i] >> 32) == key)
                return static_cast<std::uint32_t>(slots_[i]);
            i = (i + 1) & mask;
        }
        const std::uint32_t val = count_++;
        slots_[i] = (std::uint64_t(key) << 32) | val;
        if (2 * count_ > slots_.size())
            grow();
        return val;
    }

    std::uint32_t size() const { return count_; }

private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, kEmpty);
        const std::uint32_t mask =
            static_cast<std::uint32_t>(slots_.size()) - 1;
        for (std::uint64_t s : old) {
            if (s == kEmpty)
                continue;
            std::uint32_t i =
                (static_cast<std::uint32_t>(s >> 32) * 0x9e3779b1u) &
                mask;
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<std::uint64_t> slots_;
    std::uint32_t count_ = 0;
};

/** ResourceIdHash is injective (unit << 16 | index fits 24 bits), so
 *  it doubles as the packed FlatIndex key. */
inline std::uint32_t
packRes(ResourceId r)
{
    return (static_cast<std::uint32_t>(r.unit) << 16) | r.index;
}

Prepared
prepare(const Trace &trace)
{
    const auto &ops = trace.ops();
    Prepared p;
    p.resOf.resize(ops.size());
    p.ctxOf.resize(ops.size());

    FlatIndex res_index;
    FlatIndex ctx_index;
    ctx_index.indexOf(NoGpuContext);  // dense ctx 0 == none

    ResourceId rk{};
    std::uint32_t rv = ~0u;
    GpuContextId xk = NoGpuContext;
    std::uint32_t xv = 0;
    for (const Op &op : ops) {
        if (rv == ~0u || !(op.resource == rk)) {
            rv = res_index.indexOf(packRes(op.resource));
            if (rv == p.resources.size()) {  // first appearance
                p.resources.push_back(op.resource);
                p.gpuRes.push_back(op.resource.unit ==
                                   ResUnit::GpuCompute);
            }
            rk = op.resource;
        }
        p.resOf[op.id] = rv;
        if (op.gpuCtx != xk) {
            xv = ctx_index.indexOf(op.gpuCtx);
            xk = op.gpuCtx;
        }
        if (op.duration > 0xffffffffULL || op.depCount > 0xffff ||
            p.resources.size() > 0x10000 || ctx_index.size() > 0x10000) {
            p.leanOk = false;  // caller falls back to schedule()
            return p;
        }
        p.ctxOf[op.id] = static_cast<std::uint16_t>(xv);
    }
    p.nres = static_cast<std::uint32_t>(p.resources.size());
    p.nctx = static_cast<std::uint32_t>(ctx_index.size());
    return p;
}

/**
 * Same, for one component's member list (ascending global op ids).
 * Dependents carry component-local ids; @p local_of is a shared
 * n-sized scratch written at disjoint indices (every op belongs to
 * exactly one component). @p res_local_map must be nres-sized and all
 * ~0u on entry; the caller resets the entries listed in
 * @p resources_local (global dense resource ids, first-appearance
 * order) afterwards.
 */
void
buildHotSubset(const Trace &trace, const Prepared &prep,
               std::span<const OpId> members, std::uint32_t *local_of,
               std::vector<std::uint32_t> &res_local_map,
               std::vector<std::uint32_t> &resources_local,
               std::vector<HotOp> &hot, std::vector<OpId> &dependents)
{
    const std::size_t m = members.size();
    hot.assign(m + 1, HotOp{});
    resources_local.clear();
    std::vector<std::uint32_t> dep_count(m + 1, 0);
    std::size_t edges = 0;
    for (std::size_t l = 0; l < m; ++l) {
        const OpId g = members[l];
        local_of[g] = static_cast<std::uint32_t>(l);
        const Op &op = trace.op(g);
        const std::uint32_t gr = prep.resOf[g];
        std::uint32_t lr = res_local_map[gr];
        if (lr == ~0u) {
            lr = static_cast<std::uint32_t>(resources_local.size());
            res_local_map[gr] = lr;
            resources_local.push_back(gr);
        }
        HotOp &h = hot[l];
        h.res = static_cast<std::uint16_t>(lr);
        h.ctx = prep.ctxOf[g];
        h.dur = static_cast<std::uint32_t>(op.duration);
        h.kind = static_cast<std::uint8_t>(op.kind);
        h.pending = static_cast<std::uint16_t>(op.depCount);
        edges += op.depCount;
        // Deps precede the op and share its component, so their local
        // ids are already assigned.
        for (OpId d : trace.deps(op))
            ++dep_count[local_of[d] + 1];
    }
    for (std::size_t i = 0; i < m; ++i)
        dep_count[i + 1] += dep_count[i];
    dependents.resize(edges);
    std::vector<std::uint32_t> cursor(dep_count.begin(),
                                      dep_count.end() - 1);
    for (std::size_t l = 0; l < m; ++l)
        for (OpId d : trace.deps(trace.op(members[l])))
            dependents[cursor[local_of[d]]++] = static_cast<OpId>(l);
    for (std::size_t i = 0; i <= m; ++i)
        hot[i].depOff = dep_count[i];
}

/** Accumulated output of one lean-core run (local resource ids). */
struct LeanOut
{
    std::uint64_t ctxSwitches = 0;
    std::size_t scheduled = 0;
    std::vector<Tick> busy, lastFree;
    std::vector<std::uint64_t> opCount;
    Tick kindBusy[OpKindCount] = {};
    bool kindSeen[OpKindCount] = {};
};

/**
 * The serial lean core: commits every schedulable op, leaving each
 * op's start time in hot[i].ready. @p is_gpu is indexed by local
 * dense resource id.
 */
void
runLeanLoop(std::vector<HotOp> &hot, const std::vector<OpId> &dependents,
            const std::vector<std::uint8_t> &is_gpu, std::size_t nctx,
            Tick switch_cost, LeanOut &out)
{
    const std::size_t m = hot.size() - 1;
    const std::size_t nres = is_gpu.size();
    SchedState s;
    s.hot = hot.data();
    s.rs.resize(nres);
    s.cand.resize(nres);
    for (std::size_t r = 0; r < nres; ++r) {
        s.rs[r].isGpu = is_gpu[r] != 0;
        if (s.rs[r].isGpu)
            s.rs[r].byCtx.resize(nctx);
    }
    out.busy.assign(nres, 0);
    out.lastFree.assign(nres, 0);
    out.opCount.assign(nres, 0);

    std::vector<FutEnt> tie_buf;
    for (std::size_t i = 0; i < m; ++i)
        if (hot[i].pending == 0)
            pushArrival(s, hot[i].res, static_cast<OpId>(i),
                        hot[i].ready);
    for (std::size_t r = 0; r < nres; ++r)
        refreshRes(s, static_cast<std::uint32_t>(r), tie_buf);

    for (;;) {
        // Linear argmin over per-resource candidates. Empty slots
        // carry eff == MaxTick so candLess screens them without a
        // separate validity branch; all-empty leaves an invalid pick.
        std::uint32_t ridx = 0;
        for (std::uint32_t r2 = 1; r2 < nres; ++r2)
            if (candLess(s.cand[r2], s.cand[ridx]))
                ridx = r2;
        if (s.cand[ridx].id == InvalidOpId)
            break;

        const Cand c = s.cand[ridx];
        const OpId id = c.id;
        Res &r = s.rs[ridx];
        HotOp &h = hot[id];
        popCand(s, ridx, c);

        Tick start = std::max(h.ready, r.freeAt);
        if (r.isGpu && h.ctx != 0) {
            if (r.lastCtx != 0 && r.lastCtx != h.ctx) {
                start += switch_cost;
                ++out.ctxSwitches;
            }
            r.lastCtx = h.ctx;
        }

        // Commit order correlates with op-id order in steady state;
        // pull the records ~64 commits ahead into cache with write
        // intent.
        __builtin_prefetch(
            &hot[std::min<std::size_t>(std::size_t(id) + 64, m - 1)],
            1);

        const Tick finish = start + h.dur;
        r.freeAt = finish;
        out.busy[ridx] += h.dur;
        if (finish > out.lastFree[ridx])
            out.lastFree[ridx] = finish;
        ++out.opCount[ridx];
        out.kindBusy[h.kind] += h.dur;
        out.kindSeen[h.kind] = true;
        ++out.scheduled;

        const std::uint32_t dep_end = (&h)[1].depOff;
        for (std::uint32_t e = h.depOff; e < dep_end; ++e) {
            const OpId dep = dependents[e];
            HotOp &hd = hot[dep];
            if (finish > hd.ready)
                hd.ready = finish;
            if (--hd.pending == 0)
                pushArrival(s, hd.res, dep, hd.ready);
        }
        h.ready = start;  // slot is dead; start lives here now
        refreshRes(s, ridx, tie_buf);
    }
}

/**
 * Schedule each member list on a worker pool, largest list first.
 * Every list must be an ascending, dependency- and resource-closed
 * set of op ids (a resource-connected component or a union of them).
 * Start/finish land in @p res (pre-sized to the trace); per-list
 * stats land in @p outs / @p comp_resources (pre-sized to the list
 * count), which the caller merges deterministically.
 */
void
runCompLists(const Trace &trace, const SchedulerConfig &config,
             const Prepared &prep, unsigned threads,
             const std::vector<std::vector<OpId>> &members,
             ScheduleResult &res, std::vector<LeanOut> &outs,
             std::vector<std::vector<std::uint32_t>> &comp_resources)
{
    const auto nc = static_cast<std::uint32_t>(members.size());
    if (nc == 0)
        return;

    // Claim largest lists first so the pool drains evenly.
    std::vector<std::uint32_t> order(nc);
    for (std::uint32_t c = 0; c < nc; ++c)
        order[c] = c;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return members[a].size() != members[b].size()
                             ? members[a].size() > members[b].size()
                             : a < b;
              });

    std::vector<std::uint32_t> local_of(trace.size());
    std::atomic<std::uint32_t> next{0};

    auto workerFn = [&]() {
        std::vector<std::uint32_t> res_local_map(prep.nres, ~0u);
        std::vector<HotOp> hot;
        std::vector<OpId> dependents;
        std::vector<std::uint8_t> is_gpu;
        for (;;) {
            const std::uint32_t k =
                next.fetch_add(1, std::memory_order_relaxed);
            if (k >= nc)
                break;
            const std::uint32_t comp = order[k];
            const auto &mem = members[comp];
            buildHotSubset(trace, prep, mem, local_of.data(),
                           res_local_map, comp_resources[comp], hot,
                           dependents);
            is_gpu.clear();
            for (std::uint32_t gr : comp_resources[comp])
                is_gpu.push_back(prep.gpuRes[gr]);
            runLeanLoop(hot, dependents, is_gpu, prep.nctx,
                        config.gpuCtxSwitchTicks, outs[comp]);
            // Disjoint slices of the shared start/finish arrays.
            for (std::size_t l = 0; l < mem.size(); ++l) {
                res.start[mem[l]] = hot[l].ready;
                res.finish[mem[l]] = hot[l].ready + hot[l].dur;
            }
            for (std::uint32_t gr : comp_resources[comp])
                res_local_map[gr] = ~0u;
        }
    };

    const unsigned workers = std::max<unsigned>(
        1, std::min<unsigned>(threads, nc));
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(workerFn);
    workerFn();
    for (std::thread &t : pool)
        t.join();
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

}  // namespace par

ScheduleResult
scheduleWith(SchedulerEngine engine, const Trace &trace,
             const SchedulerConfig &config)
{
    if (engine == SchedulerEngine::Reference)
        return scheduleReference(trace, config);
    return schedule(trace, config);
}

// ---------------------------------------------------------------------------
// StreamingScheduler: shard intake + merge-once join.
//
// Correctness rests on two facts:
//
//  1. Scheduling a resource-connected component in isolation is
//     bit-identical to the whole-trace schedule restricted to that
//     component (the Streaming walls compare every result field
//     against schedule() on the merged trace). A shard component whose
//     resources appear in no other shard is a component of the final
//     merged trace, so its intake-time schedule — computed on the
//     shard trace with component-local op ids (ascending in merged-id
//     order, since append() preserves order), component-local dense
//     resource ids (injective relabels are invisible to the lean
//     core), and post-remap GPU context ids densified with 0 == none
//     (exactly what prepare() would assign) — already IS its slice of
//     the final result.
//
//  2. Every ScheduleResult aggregate is a per-component disjoint
//     union (start/finish, usage keys) or a commutative fold
//     (makespan max, kindBusy and gpuCtxSwitches sums), so folding
//     surviving intake results with the join's (re)scheduled groups
//     in any order reproduces the two-phase fields bit for bit.
//
// The intake tracks resource ownership across shards with a
// union-find over shard components: a shard component that shares a
// resource with an earlier shard is never speculatively scheduled
// (on the Fermi preset every user shares the DMA engines and the
// single compute context, so shard 0 is the only eager winner and
// the join reschedules everything — the overlap win there is the
// incremental merge plus recording/scheduling pipelining, not result
// reuse), and a later shard touching a scheduled component's
// resource invalidates the stored result at the join.
// ---------------------------------------------------------------------------

/** One shard component accepted by the streaming intake. Named
 *  linkage for the same -Wsubobject-linkage reason as par above. */
struct EarlyComp
{
    std::vector<OpId> members;          // merged-trace op ids, ascending
    std::vector<ResourceId> resources;  // first-appearance order
    par::LeanOut out;
    std::vector<Tick> start;            // per member (same index)
    std::vector<std::uint32_t> dur;     // per member
    bool scheduled = false;             // intake result present
};

struct StreamingScheduler::Impl
{
    SchedulerConfig config;
    unsigned threads = 0;
    Trace merged;
    bool finished = false;
    /** Incremental mirror of prepare()'s lean-core gates; when any
     *  trips, finish() discards intake results and falls back to
     *  schedule() on the merged trace — identical either way. */
    bool leanOk = true;

    std::vector<EarlyComp> comps;
    std::vector<std::uint32_t> parent;  // union-find over comps
    std::unordered_map<ResourceId, std::uint32_t, ResourceIdHash>
        resOwner;  // resource -> first comp that used it
    std::unordered_set<GpuContextId> ctxSeen;  // post-remap, incl. none
    StreamingStats stats;

    std::uint32_t
    find(std::uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];  // path halving
            x = parent[x];
        }
        return x;
    }

    void
    unite(std::uint32_t a, std::uint32_t b)
    {
        const std::uint32_t ra = find(a);
        const std::uint32_t rb = find(b);
        if (ra != rb)
            parent[rb] = ra;
    }

    void scheduleIntake(const Trace &shard,
                        const Trace::AppendRemap &remap, OpId offset,
                        const std::unordered_map<ResourceId,
                                                 std::uint32_t,
                                                 ResourceIdHash> &local_res,
                        EarlyComp &ec,
                        std::vector<std::uint32_t> &local_of);
};

/**
 * Run the lean core over one shard component straight from the shard
 * trace (the merged trace's Op array is still growing, but this
 * component's slice of it is final). Mirrors buildHotSubset() +
 * runLeanLoop() on the merged trace: local ids ascend in merged-id
 * order, dense resources come from the intake registration pass, and
 * contexts are remapped before densifying so 0 == none is preserved.
 */
void
StreamingScheduler::Impl::scheduleIntake(
    const Trace &shard, const Trace::AppendRemap &remap, OpId offset,
    const std::unordered_map<ResourceId, std::uint32_t,
                             ResourceIdHash> &local_res,
    EarlyComp &ec, std::vector<std::uint32_t> &local_of)
{
    const std::size_t m = ec.members.size();
    std::vector<par::HotOp> hot(m + 1);
    par::FlatIndex ctx_index;
    ctx_index.indexOf(NoGpuContext);  // dense ctx 0 == none

    std::vector<std::uint32_t> dep_count(m + 1, 0);
    std::size_t edges = 0;
    for (std::size_t l = 0; l < m; ++l) {
        const OpId sl = ec.members[l] - offset;
        local_of[sl] = static_cast<std::uint32_t>(l);
        const Op &op = shard.op(sl);
        GpuContextId ctx = op.gpuCtx;
        if (ctx != NoGpuContext)
            ctx = remap.mapCtx(ctx);
        par::HotOp &h = hot[l];
        h.res = static_cast<std::uint16_t>(local_res.at(op.resource));
        h.ctx = static_cast<std::uint16_t>(ctx_index.indexOf(ctx));
        h.dur = static_cast<std::uint32_t>(op.duration);
        h.kind = static_cast<std::uint8_t>(op.kind);
        h.pending = static_cast<std::uint16_t>(op.depCount);
        edges += op.depCount;
        // Deps precede the op and stay inside the component.
        for (OpId d : shard.deps(op))
            ++dep_count[local_of[d] + 1];
    }
    for (std::size_t i = 0; i < m; ++i)
        dep_count[i + 1] += dep_count[i];
    std::vector<OpId> dependents(edges);
    std::vector<std::uint32_t> cursor(dep_count.begin(),
                                      dep_count.end() - 1);
    for (std::size_t l = 0; l < m; ++l)
        for (OpId d : shard.deps(shard.op(ec.members[l] - offset)))
            dependents[cursor[local_of[d]]++] = static_cast<OpId>(l);
    for (std::size_t i = 0; i <= m; ++i)
        hot[i].depOff = dep_count[i];

    std::vector<std::uint8_t> is_gpu;
    is_gpu.reserve(ec.resources.size());
    for (const ResourceId &r : ec.resources)
        is_gpu.push_back(r.unit == ResUnit::GpuCompute);

    par::runLeanLoop(hot, dependents, is_gpu, ctx_index.size(),
                     config.gpuCtxSwitchTicks, ec.out);
    if (ec.out.scheduled != m)
        return;  // cycle inside the shard; the join detects and panics
    ec.start.resize(m);
    ec.dur.resize(m);
    for (std::size_t l = 0; l < m; ++l) {
        ec.start[l] = hot[l].ready;
        ec.dur[l] = hot[l].dur;
    }
    ec.scheduled = true;
}

StreamingScheduler::StreamingScheduler(const SchedulerConfig &config,
                                       unsigned threads)
    : impl_(std::make_unique<Impl>())
{
    impl_->config = config;
    impl_->threads = threads;
    impl_->ctxSeen.insert(NoGpuContext);  // prepare() seeds dense 0
}

StreamingScheduler::~StreamingScheduler() = default;

void
StreamingScheduler::addShard(const Trace &shard,
                             const Trace::AppendRemap &remap)
{
    Impl &im = *impl_;
    if (im.finished)
        hix_panic("StreamingScheduler: addShard after finish");
    ++im.stats.shards;
    const OpId offset = im.merged.append(shard, remap);

    // Incremental lean-core gates, mirroring prepare().
    for (const Op &op : shard.ops()) {
        if (op.duration > 0xffffffffULL || op.depCount > 0xffff)
            im.leanOk = false;
        GpuContextId ctx = op.gpuCtx;
        if (ctx != NoGpuContext)
            ctx = remap.mapCtx(ctx);
        im.ctxSeen.insert(ctx);
    }

    const Trace::Components sc = shard.components();
    const auto base = static_cast<std::uint32_t>(im.comps.size());
    im.comps.resize(base + sc.count);
    for (std::uint32_t c = 0; c < sc.count; ++c) {
        im.parent.push_back(base + c);
        im.comps[base + c].members.reserve(sc.sizes[c]);
    }
    for (const Op &op : shard.ops())
        im.comps[base + sc.opComponent[op.id]].members.push_back(
            op.id + offset);

    // Register this shard's resources; one owned by an earlier shard
    // links the two components — neither side's intake result can
    // survive the join.
    std::unordered_map<ResourceId, std::uint32_t, ResourceIdHash>
        local_res;  // resource -> component-local dense index
    std::vector<char> shared(sc.count, 0);
    for (const Op &op : shard.ops()) {
        const std::uint32_t c = sc.opComponent[op.id];
        EarlyComp &ec = im.comps[base + c];
        auto [it, inserted] = local_res.try_emplace(
            op.resource,
            static_cast<std::uint32_t>(ec.resources.size()));
        if (!inserted)
            continue;
        ec.resources.push_back(op.resource);
        auto [owner, fresh] =
            im.resOwner.try_emplace(op.resource, base + c);
        if (!fresh) {
            im.unite(owner->second, base + c);
            shared[c] = 1;
        }
    }
    if (im.resOwner.size() > 0x10000 || im.ctxSeen.size() > 0x10000)
        im.leanOk = false;
    if (!im.leanOk)
        return;

    // Speculatively schedule the components still private to this
    // shard while later users are recording.
    std::vector<std::uint32_t> local_of(shard.size());
    for (std::uint32_t c = 0; c < sc.count; ++c) {
        if (shared[c])
            continue;
        EarlyComp &ec = im.comps[base + c];
        im.scheduleIntake(shard, remap, offset, local_res, ec,
                          local_of);
        if (ec.scheduled)
            ++im.stats.earlyComps;
    }
}

ScheduleResult
StreamingScheduler::finish()
{
    Impl &im = *impl_;
    if (im.finished)
        hix_panic("StreamingScheduler: finish called twice");
    im.finished = true;
    const std::size_t n = im.merged.size();
    if (n == 0 || !im.leanOk)
        return schedule(im.merged, im.config);

    const auto nc = static_cast<std::uint32_t>(im.comps.size());
    std::vector<std::uint32_t> group_size(nc, 0);
    for (std::uint32_t c = 0; c < nc; ++c)
        ++group_size[im.find(c)];
    bool any_valid = false;
    std::vector<char> valid(nc, 0);
    for (std::uint32_t c = 0; c < nc; ++c) {
        valid[c] =
            im.comps[c].scheduled && group_size[im.find(c)] == 1;
        any_valid = any_valid || valid[c] != 0;
    }
    if (!any_valid) {
        // Nothing survived — one cross-shard group (the Fermi preset:
        // all users share the DMA engines and compute context), so
        // the whole merged trace is one problem for schedule().
        im.stats.joinOps = n;
        return schedule(im.merged, im.config);
    }

    par::Prepared prep = par::prepare(im.merged);
    if (!prep.leanOk)
        return schedule(im.merged, im.config);  // gates re-trip: safe

    // Concatenate each dirty group's member lists. Components of one
    // shard can join the same group through different resources of a
    // later shard, and their ids interleave — sort to restore the
    // ascending order buildHotSubset() requires.
    std::vector<std::uint32_t> group_list(nc, ~0u);
    std::vector<std::vector<OpId>> dirty;
    for (std::uint32_t c = 0; c < nc; ++c) {
        if (valid[c])
            continue;
        const std::uint32_t root = im.find(c);
        if (group_list[root] == ~0u) {
            group_list[root] =
                static_cast<std::uint32_t>(dirty.size());
            dirty.emplace_back();
        }
        auto &list = dirty[group_list[root]];
        list.insert(list.end(), im.comps[c].members.begin(),
                    im.comps[c].members.end());
    }
    for (auto &list : dirty)
        std::sort(list.begin(), list.end());

    ScheduleResult res;
    res.start.assign(n, 0);
    res.finish.assign(n, 0);
    std::vector<par::LeanOut> outs(dirty.size());
    std::vector<std::vector<std::uint32_t>> dirty_res(dirty.size());
    par::runCompLists(im.merged, im.config, prep,
                      par::resolveThreads(im.threads), dirty, res,
                      outs, dirty_res);

    // Merge once: rescheduled groups first, then surviving intake
    // results. Usage keys are disjoint by construction; the folds are
    // commutative, so this order is just for readability.
    std::size_t scheduled = 0;
    Tick kind_busy[OpKindCount] = {};
    bool kind_seen[OpKindCount] = {};
    for (std::size_t g = 0; g < dirty.size(); ++g) {
        const par::LeanOut &o = outs[g];
        scheduled += o.scheduled;
        res.gpuCtxSwitches += o.ctxSwitches;
        for (std::size_t lr = 0; lr < dirty_res[g].size(); ++lr) {
            ResourceUsage &use =
                res.usage[prep.resources[dirty_res[g][lr]]];
            use.busy = o.busy[lr];
            use.lastFree = o.lastFree[lr];
            use.ops = o.opCount[lr];
            if (o.lastFree[lr] > res.makespan)
                res.makespan = o.lastFree[lr];
        }
        for (std::size_t k = 0; k < OpKindCount; ++k) {
            kind_busy[k] += o.kindBusy[k];
            kind_seen[k] = kind_seen[k] || o.kindSeen[k];
        }
        im.stats.joinOps += dirty[g].size();
    }
    for (std::uint32_t c = 0; c < nc; ++c) {
        if (!valid[c])
            continue;
        const EarlyComp &ec = im.comps[c];
        const par::LeanOut &o = ec.out;
        scheduled += o.scheduled;
        res.gpuCtxSwitches += o.ctxSwitches;
        for (std::size_t l = 0; l < ec.members.size(); ++l) {
            res.start[ec.members[l]] = ec.start[l];
            res.finish[ec.members[l]] = ec.start[l] + ec.dur[l];
        }
        for (std::size_t lr = 0; lr < ec.resources.size(); ++lr) {
            ResourceUsage &use = res.usage[ec.resources[lr]];
            use.busy = o.busy[lr];
            use.lastFree = o.lastFree[lr];
            use.ops = o.opCount[lr];
            if (o.lastFree[lr] > res.makespan)
                res.makespan = o.lastFree[lr];
        }
        for (std::size_t k = 0; k < OpKindCount; ++k) {
            kind_busy[k] += o.kindBusy[k];
            kind_seen[k] = kind_seen[k] || o.kindSeen[k];
        }
        ++im.stats.reusedComps;
        im.stats.reusedOps += ec.members.size();
    }
    if (scheduled != n)
        hix_panic("scheduler: dependency cycle, scheduled ", scheduled,
                  " of ", n, " ops");
    for (std::size_t k = 0; k < OpKindCount; ++k)
        if (kind_seen[k])
            res.kindBusy[static_cast<OpKind>(k)] = kind_busy[k];
    return res;
}

const Trace &
StreamingScheduler::merged() const
{
    return impl_->merged;
}

Trace
StreamingScheduler::takeMerged()
{
    return std::move(impl_->merged);
}

const StreamingStats &
StreamingScheduler::stats() const
{
    return impl_->stats;
}

}  // namespace hix::sim
