/**
 * @file
 * Timed-operation DAG recorded during functional execution.
 *
 * The platform separates functional execution from timing (the gem5
 * approach). As a workload runs through the software stack, every
 * timed hardware action — an MMIO doorbell, a DMA chunk transfer, a
 * CPU encryption pass, a GPU kernel — is appended to a Trace as an Op
 * with an explicit dependency list. The Scheduler (scheduler.h) then
 * computes start/completion times with resource arbitration. Explicit
 * dependencies are what let the HIX chunked data path express its
 * encrypt/transfer pipelining (Section 5.2 of the paper).
 *
 * The trace is allocation-lean so multi-million-op recordings (16+
 * concurrent users, 4 KiB pipeline chunks) stay cheap: op labels are
 * interned into a per-trace string table and ops carry a 32-bit
 * LabelId; dependency lists of up to two entries (the common case —
 * program-order chain plus one pipeline dependency) live inline in
 * the Op, longer lists spill into one shared pool owned by the Trace.
 */

#ifndef HIX_SIM_TRACE_H_
#define HIX_SIM_TRACE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/resource.h"

namespace hix::sim
{

/** Index of an op within its Trace. */
using OpId = std::uint32_t;

/** Sentinel for "no op". */
inline constexpr OpId InvalidOpId = std::numeric_limits<OpId>::max();

/** GPU context tag for ops that do not run on the GPU. */
inline constexpr GpuContextId NoGpuContext = ~GpuContextId(0);

/** Interned op-label handle; resolve with Trace::labelOf(). */
using LabelId = std::uint32_t;

/** LabelId of the empty label (always interned as id 0). */
inline constexpr LabelId NoLabel = 0;

/** Broad op categories for per-category stats breakdowns. */
enum class OpKind : std::uint8_t
{
    Compute,     //!< GPU application kernel
    CryptoCpu,   //!< CPU-side (enclave) encryption/decryption
    CryptoGpu,   //!< in-GPU crypto kernel
    Transfer,    //!< DMA or MMIO data movement
    Control,     //!< doorbells, IPC messages, driver bookkeeping
    Init,        //!< one-time setup (task init, attestation, ...)
};

/** Number of OpKind values (for dense per-kind tables). */
inline constexpr std::size_t OpKindCount = 6;

const char *opKindName(OpKind kind);

/**
 * One timed hardware action. Plain value type with no heap-owning
 * members: the label is an interned id and dependency lists longer
 * than InlineDeps live in the owning Trace's shared pool, so resolve
 * both through the Trace (labelOf() / deps()).
 */
struct Op
{
    /** Dependencies stored inline before spilling to the pool. */
    static constexpr std::uint32_t InlineDeps = 2;

    OpId id = InvalidOpId;
    /** Resource the op occupies exclusively while running. */
    ResourceId resource;
    /** Service time on the resource, in ticks. */
    Tick duration = 0;
    /** Payload size, for bandwidth stats; zero when not applicable. */
    std::uint64_t bytes = 0;
    /** GPU context (for context-switch accounting), or NoGpuContext. */
    GpuContextId gpuCtx = NoGpuContext;
    /** Interned label; Trace::labelOf() resolves it for dumps. */
    LabelId label = NoLabel;
    /** Number of prerequisite ops. */
    std::uint32_t depCount = 0;
    /** First InlineDeps prerequisites (valid when depCount <= InlineDeps). */
    OpId inlineDeps[InlineDeps] = {InvalidOpId, InvalidOpId};
    /** Offset into the trace's dep pool (valid when depCount > InlineDeps). */
    std::uint32_t depPoolOffset = 0;
    OpKind kind = OpKind::Control;
};

/**
 * An append-only op DAG. Traces from several users can be merged for
 * multi-user scheduling; op ids, spilled dependency lists, and label
 * ids are rewritten during the merge.
 */
class Trace
{
  public:
    Trace();

    /**
     * Append an op. @p deps lists prerequisite op ids within this
     * trace; InvalidOpId entries are dropped. @p chain_dep, when
     * valid, is appended after @p deps (the recorder's program-order
     * chain tail) without materialising a combined list.
     *
     * @return the new op's id.
     */
    OpId add(ResourceId resource, Tick duration,
             std::span<const OpId> deps, OpKind kind,
             std::uint64_t bytes = 0, std::string_view label = {},
             GpuContextId gpu_ctx = NoGpuContext,
             OpId chain_dep = InvalidOpId);

    /** Braced-list convenience: t.add(r, 10, {a, b}, kind). */
    OpId
    add(ResourceId resource, Tick duration,
        std::initializer_list<OpId> deps, OpKind kind,
        std::uint64_t bytes = 0, std::string_view label = {},
        GpuContextId gpu_ctx = NoGpuContext)
    {
        return add(resource, duration,
                   std::span<const OpId>(deps.begin(), deps.size()),
                   kind, bytes, label, gpu_ctx);
    }

    const std::vector<Op> &ops() const { return ops_; }
    const Op &op(OpId id) const { return ops_[id]; }
    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /** Prerequisites of @p op (inline or pooled storage). */
    std::span<const OpId>
    deps(const Op &op) const
    {
        if (op.depCount <= Op::InlineDeps)
            return {op.inlineDeps, op.depCount};
        return {dep_pool_.data() + op.depPoolOffset, op.depCount};
    }

    /** Prerequisites of the op with id @p id. */
    std::span<const OpId> deps(OpId id) const { return deps(ops_[id]); }

    /** The interned string behind a LabelId ("" for NoLabel). */
    const std::string &
    labelOf(LabelId label) const
    {
        return labels_[label < labels_.size() ? label : 0];
    }

    /** Label of @p op. */
    const std::string &labelOf(const Op &op) const
    {
        return labelOf(op.label);
    }

    /** Intern @p label (idempotent); "" always maps to NoLabel. */
    LabelId internLabel(std::string_view label);

    /** Number of distinct interned labels (incl. the empty label). */
    std::size_t labelCount() const { return labels_.size(); }

    /** Id of the most recently added op, or InvalidOpId when empty. */
    OpId
    lastOp() const
    {
        return ops_.empty() ? InvalidOpId
                            : static_cast<OpId>(ops_.size() - 1);
    }

    /** Total duration of ops of a given kind (no overlap analysis). */
    Tick totalDuration(OpKind kind) const;

    /** Total bytes attached to ops of a given kind. */
    std::uint64_t totalBytes(OpKind kind) const;

    /** Pre-size op storage for a known recording (multi-user merge). */
    void reserve(std::size_t ops);

    /** Remove all ops (interned labels are kept: ids stay stable for
     *  the common record/clear/record cycle between runs). */
    void
    clear()
    {
        ops_.clear();
        dep_pool_.clear();
    }

    /**
     * Rewrites applied to ops while they are appended by
     * append(other, remap). Used by the sharded multi-user recorder:
     * each user records on a private machine whose GPU context ids
     * are shard-local, and the merge rewrites them to canonical
     * per-user ids so the merged trace is deterministic regardless
     * of shard construction order or threading.
     */
    struct AppendRemap
    {
        /**
         * Exact-match gpuCtx rewrites (old -> new). Ops whose context
         * appears in no entry — including NoGpuContext — keep their
         * recorded value. Kept as a flat list: real remaps have a
         * handful of contexts per shard.
         */
        std::vector<std::pair<GpuContextId, GpuContextId>> gpuCtx;

        GpuContextId
        mapCtx(GpuContextId ctx) const
        {
            for (const auto &[from, to] : gpuCtx)
                if (from == ctx)
                    return to;
            return ctx;
        }
    };

    /**
     * Append all ops of @p other, remapping op ids, spilled dep
     * lists, and label ids; returns the id offset applied to the
     * appended ops.
     *
     * Recorder observers attached to a TraceRecorder targeting this
     * trace do NOT fire for appended ops: append() is a bulk merge of
     * already-recorded execution, not a recording-time event.
     */
    OpId append(const Trace &other) { return append(other, AppendRemap{}); }

    /** append() with per-op rewrites (see AppendRemap). */
    OpId append(const Trace &other, const AppendRemap &remap);

    /**
     * Test-only: overwrite an op's dependency list without the
     * forward-reference check, so scheduler cycle-detection paths can
     * be exercised. Never call from modelled software.
     */
    void overwriteDepsForTest(OpId id, std::span<const OpId> deps);

  private:
    struct LabelHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::uint32_t storeDeps(Op &op, std::span<const OpId> deps,
                            OpId chain_dep);

    std::vector<Op> ops_;
    /** Spilled dependency lists (> Op::InlineDeps entries). */
    std::vector<OpId> dep_pool_;
    /** Interned label strings; index == LabelId, [0] == "". */
    std::vector<std::string> labels_;
    /** Reverse lookup; heterogeneous find avoids per-record allocs. */
    std::unordered_map<std::string, LabelId, LabelHash,
                       std::equal_to<>>
        label_ids_;
};

/**
 * Order-insensitive content digest of a trace: FNV-1a 64 over each
 * op's resource, duration, bytes, gpuCtx, kind, resolved label string,
 * and dependency list. Label *ids* and inline-vs-spilled dep storage
 * do not enter the hash, so two traces recorded through different
 * interning orders digest equal iff they describe the same op DAG.
 * This is the equality witness for the parallel-recording guarantee.
 */
std::uint64_t traceDigest(const Trace &trace);

/**
 * Scoped recorder handle: components take a TraceRecorder so they can
 * run with recording disabled (pure functional mode) at zero cost.
 *
 * The recorder also maintains one "program order" chain per actor: by
 * default each recorded op depends on the previous op recorded for
 * the same actor, which models straight-line software. Data-path code
 * that pipelines passes explicit dependency lists instead.
 *
 * Thread contract: a recorder (and the trace it targets) is owned by
 * exactly one recording thread. The sharded multi-user runner gives
 * every user a private machine/recorder, so recording never crosses
 * threads. Observers consequently fire synchronously on the recording
 * thread of their own shard, with the op's label already resolved;
 * addObserver/removeObserver must be called from that same thread
 * (before the run starts, or from inside an observer). Calling them
 * from another thread while recording is a data race by contract —
 * it is not locked, and the TSan CI job enforces that no such call
 * exists in the tree.
 */
class TraceRecorder
{
  public:
    /**
     * Observer fired after an op is appended to the trace. This is
     * the security harness's phase hook: functional execution calls
     * record() at precise points of the modelled software (per
     * transfer chunk, per kernel launch), so an observer can
     * interleave an action — e.g. a privileged attack — exactly
     * between two chunks of a running transfer. @p label is the op's
     * resolved label, stable across trace mutation by the observer.
     */
    using OpObserver =
        std::function<void(const Op &, const std::string &label)>;

    /** A recorder that drops everything. */
    TraceRecorder() = default;

    /** A recorder appending to @p trace. */
    explicit TraceRecorder(Trace *trace) : trace_(trace) {}

    bool enabled() const { return trace_ != nullptr; }
    Trace *trace() { return trace_; }

    /**
     * Register an observer; returns a handle for removeObserver.
     * Observers must not record ops themselves (no re-entrancy).
     * Recording-thread only (see class comment). An observer added
     * from inside an observer callback first fires for the *next*
     * recorded op, not the one being notified.
     */
    int addObserver(OpObserver observer);

    /**
     * Remove an observer by the handle addObserver returned.
     * Recording-thread only. Removing from inside an observer
     * callback is safe, including self-removal; a removed observer
     * that has not fired for the current op is skipped.
     */
    void removeObserver(int handle);

    /**
     * Record an op that follows program order for @p actor: it
     * depends on the actor's previous op plus @p extra_deps, and
     * becomes the actor's new chain tail.
     *
     * @return the op id, or InvalidOpId when recording is disabled.
     */
    OpId record(std::uint32_t actor, ResourceId resource, Tick duration,
                OpKind kind, std::uint64_t bytes = 0,
                std::string_view label = {},
                GpuContextId gpu_ctx = NoGpuContext,
                std::span<const OpId> extra_deps = {});

    /** Braced-list convenience for @p extra_deps. */
    OpId
    record(std::uint32_t actor, ResourceId resource, Tick duration,
           OpKind kind, std::uint64_t bytes, std::string_view label,
           GpuContextId gpu_ctx, std::initializer_list<OpId> extra_deps)
    {
        return record(actor, resource, duration, kind, bytes, label,
                      gpu_ctx,
                      std::span<const OpId>(extra_deps.begin(),
                                            extra_deps.size()));
    }

    /**
     * Record an op with fully explicit dependencies; does not touch
     * any actor chain. Used by pipelined copies.
     */
    OpId recordDetached(ResourceId resource, Tick duration, OpKind kind,
                        std::span<const OpId> deps,
                        std::uint64_t bytes = 0,
                        std::string_view label = {},
                        GpuContextId gpu_ctx = NoGpuContext);

    /** Braced-list convenience for @p deps. */
    OpId
    recordDetached(ResourceId resource, Tick duration, OpKind kind,
                   std::initializer_list<OpId> deps,
                   std::uint64_t bytes = 0, std::string_view label = {},
                   GpuContextId gpu_ctx = NoGpuContext)
    {
        return recordDetached(
            resource, duration, kind,
            std::span<const OpId>(deps.begin(), deps.size()), bytes,
            label, gpu_ctx);
    }

    /**
     * Reset to the just-constructed state while keeping the chain
     * vector's capacity. Semantically identical to reassigning a
     * fresh TraceRecorder(trace()); Machine::clearTrace() uses this
     * between benchmark repetitions so neither the trace nor the
     * recorder reallocates in steady state.
     */
    void
    reset()
    {
        chain_tails_.clear();
        observers_.clear();
        next_observer_ = 0;
    }

    /** The tail op of @p actor's program-order chain. */
    OpId chainTail(std::uint32_t actor) const;

    /**
     * Make @p op the new tail of @p actor's chain (joins a pipelined
     * region back into program order).
     */
    void setChainTail(std::uint32_t actor, OpId op);

  private:
    void notify(OpId id);

    Trace *trace_ = nullptr;
    std::vector<OpId> chain_tails_;
    /** (handle, observer); removal keeps other handles stable. */
    std::vector<std::pair<int, OpObserver>> observers_;
    int next_observer_ = 0;
};

}  // namespace hix::sim

#endif  // HIX_SIM_TRACE_H_
