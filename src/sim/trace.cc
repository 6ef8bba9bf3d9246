#include "sim/trace.h"

#include "common/logging.h"

namespace hix::sim
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Compute:
        return "compute";
      case OpKind::CryptoCpu:
        return "crypto_cpu";
      case OpKind::CryptoGpu:
        return "crypto_gpu";
      case OpKind::Transfer:
        return "transfer";
      case OpKind::Control:
        return "control";
      case OpKind::Init:
        return "init";
    }
    return "unknown";
}

Trace::Trace()
{
    labels_.emplace_back();  // LabelId 0 == ""
    label_ids_.emplace(std::string(), NoLabel);
}

LabelId
Trace::internLabel(std::string_view label)
{
    if (label.empty())
        return NoLabel;
    auto it = label_ids_.find(label);
    if (it != label_ids_.end())
        return it->second;
    const LabelId id = static_cast<LabelId>(labels_.size());
    labels_.emplace_back(label);
    label_ids_.emplace(labels_.back(), id);
    return id;
}

std::uint32_t
Trace::storeDeps(Op &op, std::span<const OpId> deps, OpId chain_dep)
{
    // Validate and count first; only spill once the true count is
    // known. Duplicates are kept (the scheduler tolerates them and the
    // recorder has always allowed extra_deps to repeat the chain tail).
    std::uint32_t count = 0;
    auto check = [&](OpId d) {
        if (d == InvalidOpId)
            return false;
        if (d >= op.id)
            hix_panic("Trace: forward dependency ", d, " from op ",
                      op.id);
        return true;
    };
    for (OpId d : deps)
        if (check(d))
            ++count;
    const bool has_chain = check(chain_dep);
    if (has_chain)
        ++count;
    op.depCount = count;
    if (count <= Op::InlineDeps) {
        std::uint32_t i = 0;
        for (OpId d : deps)
            if (d != InvalidOpId)
                op.inlineDeps[i++] = d;
        if (has_chain)
            op.inlineDeps[i++] = chain_dep;
        return count;
    }
    op.depPoolOffset = static_cast<std::uint32_t>(dep_pool_.size());
    dep_pool_.reserve(dep_pool_.size() + count);
    for (OpId d : deps)
        if (d != InvalidOpId)
            dep_pool_.push_back(d);
    if (has_chain)
        dep_pool_.push_back(chain_dep);
    return count;
}

OpId
Trace::add(ResourceId resource, Tick duration, std::span<const OpId> deps,
           OpKind kind, std::uint64_t bytes, std::string_view label,
           GpuContextId gpu_ctx, OpId chain_dep)
{
    Op op;
    op.id = static_cast<OpId>(ops_.size());
    op.resource = resource;
    op.duration = duration;
    storeDeps(op, deps, chain_dep);
    op.kind = kind;
    op.bytes = bytes;
    op.label = internLabel(label);
    op.gpuCtx = gpu_ctx;
    ops_.push_back(op);
    return op.id;
}

Tick
Trace::totalDuration(OpKind kind) const
{
    Tick total = 0;
    for (const Op &op : ops_)
        if (op.kind == kind)
            total += op.duration;
    return total;
}

std::uint64_t
Trace::totalBytes(OpKind kind) const
{
    std::uint64_t total = 0;
    for (const Op &op : ops_)
        if (op.kind == kind)
            total += op.bytes;
    return total;
}

void
Trace::reserve(std::size_t ops)
{
    ops_.reserve(ops);
}

OpId
Trace::append(const Trace &other, const AppendRemap &remap)
{
    const OpId offset = static_cast<OpId>(ops_.size());
    ops_.reserve(ops_.size() + other.ops_.size());
    dep_pool_.reserve(dep_pool_.size() + other.dep_pool_.size());

    // Label ids differ between traces; build the remap once instead of
    // re-hashing per op.
    std::vector<LabelId> label_map(other.labels_.size(), NoLabel);
    for (std::size_t i = 0; i < other.labels_.size(); ++i)
        label_map[i] = internLabel(other.labels_[i]);

    for (const Op &src : other.ops_) {
        Op op = src;
        op.id += offset;
        op.label = label_map[src.label < label_map.size() ? src.label
                                                          : 0];
        if (op.gpuCtx != NoGpuContext)
            op.gpuCtx = remap.mapCtx(op.gpuCtx);
        if (op.depCount <= Op::InlineDeps) {
            for (std::uint32_t i = 0; i < op.depCount; ++i)
                op.inlineDeps[i] += offset;
        } else {
            const std::uint32_t new_off =
                static_cast<std::uint32_t>(dep_pool_.size());
            for (OpId d : other.deps(src))
                dep_pool_.push_back(d + offset);
            op.depPoolOffset = new_off;
        }
        ops_.push_back(op);
    }
    return offset;
}

namespace
{

inline void
fnv1a(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

template <typename T>
inline void
fnv1aValue(std::uint64_t &h, T value)
{
    fnv1a(h, &value, sizeof(value));
}

}  // namespace

std::uint64_t
traceDigest(const Trace &trace)
{
    // FNV-1a 64 over a canonical per-op encoding. Labels hash by their
    // resolved string bytes (not the LabelId), so two traces that
    // interned the same labels in different orders still digest equal;
    // dependency lists hash by value, so inline-vs-spilled storage is
    // invisible. This is exactly the "bit-identical" contract of the
    // parallel recorder: same ops, same deps, same label text.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    fnv1aValue(h, static_cast<std::uint64_t>(trace.size()));
    for (const Op &op : trace.ops()) {
        fnv1aValue(h, static_cast<std::uint8_t>(op.resource.unit));
        fnv1aValue(h, op.resource.index);
        fnv1aValue(h, op.duration);
        fnv1aValue(h, op.bytes);
        fnv1aValue(h, op.gpuCtx);
        fnv1aValue(h, static_cast<std::uint8_t>(op.kind));
        const std::string &label = trace.labelOf(op);
        fnv1aValue(h, static_cast<std::uint32_t>(label.size()));
        fnv1a(h, label.data(), label.size());
        const auto deps = trace.deps(op);
        fnv1aValue(h, static_cast<std::uint32_t>(deps.size()));
        for (OpId d : deps)
            fnv1aValue(h, d);
    }
    return h;
}

void
Trace::overwriteDepsForTest(OpId id, std::span<const OpId> deps)
{
    Op &op = ops_[id];
    op.depCount = static_cast<std::uint32_t>(deps.size());
    if (op.depCount <= Op::InlineDeps) {
        std::uint32_t i = 0;
        for (OpId d : deps)
            op.inlineDeps[i++] = d;
        return;
    }
    op.depPoolOffset = static_cast<std::uint32_t>(dep_pool_.size());
    dep_pool_.insert(dep_pool_.end(), deps.begin(), deps.end());
}

OpId
TraceRecorder::record(std::uint32_t actor, ResourceId resource,
                      Tick duration, OpKind kind, std::uint64_t bytes,
                      std::string_view label, GpuContextId gpu_ctx,
                      std::span<const OpId> extra_deps)
{
    if (!trace_)
        return InvalidOpId;
    if (actor >= chain_tails_.size())
        chain_tails_.resize(actor + 1, InvalidOpId);
    OpId id = trace_->add(resource, duration, extra_deps, kind, bytes,
                          label, gpu_ctx, chain_tails_[actor]);
    chain_tails_[actor] = id;
    notify(id);
    return id;
}

OpId
TraceRecorder::recordDetached(ResourceId resource, Tick duration,
                              OpKind kind, std::span<const OpId> deps,
                              std::uint64_t bytes, std::string_view label,
                              GpuContextId gpu_ctx)
{
    if (!trace_)
        return InvalidOpId;
    OpId id =
        trace_->add(resource, duration, deps, kind, bytes, label, gpu_ctx);
    notify(id);
    return id;
}

int
TraceRecorder::addObserver(OpObserver observer)
{
    const int handle = next_observer_++;
    observers_.emplace_back(handle, std::move(observer));
    return handle;
}

void
TraceRecorder::removeObserver(int handle)
{
    std::erase_if(observers_,
                  [handle](const auto &e) { return e.first == handle; });
}

void
TraceRecorder::notify(OpId id)
{
    if (observers_.empty())
        return;
    // Copy the op and resolve its label: an observer may append further
    // ops (through code it calls), which can reallocate the trace's op
    // and label storage.
    const Op op = trace_->op(id);
    const std::string label = trace_->labelOf(op);
    // Walk observers in handle order instead of by vector position: an
    // observer may call addObserver/removeObserver on this recorder
    // (same-thread mutation is part of the contract), which shifts or
    // reallocates the vector. Handles are issued monotonically and the
    // vector stays handle-sorted, so "next handle after the last one
    // fired" is a stable cursor. Observers added during this
    // notification (handle >= first_new) first fire for the next op;
    // removed observers that have not fired yet are skipped.
    const int first_new = next_observer_;
    int last_fired = -1;
    for (;;) {
        std::size_t idx = observers_.size();
        for (std::size_t i = 0; i < observers_.size(); ++i) {
            if (observers_[i].first > last_fired) {
                idx = i;
                break;
            }
        }
        if (idx == observers_.size() ||
            observers_[idx].first >= first_new)
            break;
        last_fired = observers_[idx].first;
        // Copy so an observer that removes itself stays alive for the
        // duration of its own invocation.
        OpObserver fn = observers_[idx].second;
        fn(op, label);
    }
}

OpId
TraceRecorder::chainTail(std::uint32_t actor) const
{
    if (actor >= chain_tails_.size())
        return InvalidOpId;
    return chain_tails_[actor];
}

void
TraceRecorder::setChainTail(std::uint32_t actor, OpId op)
{
    if (!trace_)
        return;
    if (actor >= chain_tails_.size())
        chain_tails_.resize(actor + 1, InvalidOpId);
    chain_tails_[actor] = op;
}

}  // namespace hix::sim
