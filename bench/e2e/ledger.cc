#include "ledger.h"

#include <cmath>
#include <cstdio>

namespace hix::bench::e2e
{

double
LayerTotals::totalMs() const
{
    double sum = 0;
    for (double v : ms)
        sum += v;
    return sum;
}

LayerTotals &
LayerTotals::operator+=(const LayerTotals &other)
{
    for (std::size_t i = 0; i < LayerCount; ++i) {
        ms[i] += other.ms[i];
        work[i] += other.work[i];
    }
    return *this;
}

namespace
{

/** Labels of user <-> GPU-enclave messages (hix.ipc_msgs). */
bool
isIpcMessage(std::string_view label)
{
    return label == "req_send" || label == "request" ||
           label == "resp_recv" || label == "open_session" ||
           label == "session_ready" || label == "chunk_h2d" ||
           label == "chunk_d2h" || label == "h2d_done";
}

sim::Op
makeOp(sim::OpKind kind, std::uint64_t bytes = 0,
       GpuContextId ctx = sim::NoGpuContext)
{
    sim::Op op;
    op.kind = kind;
    op.bytes = bytes;
    op.gpuCtx = ctx;
    return op;
}

}  // namespace

void
Ledger::charge(Layer layer, double ms)
{
    totals_.msOf(layer) += ms;
}

void
Ledger::flushPending()
{
    if (!pending_)
        return;
    charge(Layer::HixIpc, pending_ms_);
    pending_ = false;
    pending_ms_ = 0;
    if (call_ != Call::None) {
        call_has_op_ = true;
        call_last_layer_ = Layer::HixIpc;
    }
}

Layer
Ledger::classify(const sim::Op &op, std::string_view label) const
{
    switch (op.kind) {
    case sim::OpKind::CryptoCpu:
        return call_ == Call::MemcpyDtoH ? Layer::CryptoOpen
                                         : Layer::CryptoSeal;
    case sim::OpKind::CryptoGpu:
        return Layer::GpuOcb;
    case sim::OpKind::Compute:
        return Layer::GpuKernel;
    case sim::OpKind::Transfer:
        return Layer::PcieXfer;
    case sim::OpKind::Init:
        return Layer::SgxInit;
    case sim::OpKind::Control:
        break;
    }
    if (label == "h2d_stage" || label == "d2h_drain")
        return Layer::MemStage;
    return Layer::HixIpc;
}

void
Ledger::openWindow(double t)
{
    flushPending();
    last_ = t;
    in_run_ = false;
    call_ = Call::None;
}

void
Ledger::enterRun(double t)
{
    // The glue between the window opening's last op and the run is
    // the runner's, not the application's: left unattributed.
    flushPending();
    last_ = t;
    in_run_ = true;
}

void
Ledger::exitRun(double t)
{
    flushPending();
    charge(Layer::App, t - last_);
    last_ = t;
    last_exit_ = t;
    in_run_ = false;
}

void
Ledger::beginCall(Call call, double t, std::uint64_t stage_bytes)
{
    flushPending();
    if (in_run_)
        charge(Layer::App, t - last_);
    last_ = t;
    call_ = call;
    call_stage_bytes_ = stage_bytes;
    call_has_op_ = false;
}

void
Ledger::endCall(double t)
{
    flushPending();
    charge(call_has_op_ ? call_last_layer_ : Layer::HixIpc, t - last_);
    last_ = t;
    call_ = Call::None;
}

void
Ledger::op(const sim::Op &op, std::string_view label, double t)
{
    const double gap = t - last_;
    last_ = t;
    const bool device_op = op.gpuCtx != sim::NoGpuContext &&
                           op.kind != sim::OpKind::Control;
    double ms = gap;
    if (pending_) {
        if (device_op) {
            ms += pending_ms_;
            pending_ = false;
            pending_ms_ = 0;
        } else {
            flushPending();
        }
    }
    if (op.kind == sim::OpKind::Control && label == "submit") {
        pending_ = true;
        pending_ms_ = ms;
        return;
    }

    const Layer layer = classify(op, label);
    charge(layer, ms);
    switch (layer) {
    case Layer::GpuKernel:
        totals_.workOf(layer) += 1;
        break;
    case Layer::HixIpc:
        if (isIpcMessage(label))
            totals_.workOf(layer) += 1;
        break;
    case Layer::MemStage:
        totals_.workOf(layer) += call_stage_bytes_;
        break;
    default:
        totals_.workOf(layer) += op.bytes;
        break;
    }
    if (call_ != Call::None) {
        call_has_op_ = true;
        call_last_layer_ = layer;
    }
}

bool
selfTest()
{
    using K = sim::OpKind;
    Ledger l;
    // All times are exact binary fractions, so sums compare exactly.
    l.openWindow(0);
    l.op(makeOp(K::Init), "hix_task_init", 1.0);  // sgx 1
    l.op(makeOp(K::Control), "session_ready", 1.5);  // ipc .5, 1 msg
    l.enterRun(2.0);  // runner glue .5: unattributed
    // memcpyHtoD on HIX: seal, chunk DMA via a deferred submit.
    l.beginCall(Call::MemcpyHtoD, 3.0);  // app 1
    l.op(makeOp(K::CryptoCpu, 4096), "h2d_encrypt", 4.0);  // seal 1
    l.op(makeOp(K::Control), "chunk_h2d", 4.25);  // ipc .25, 1 msg
    l.op(makeOp(K::Control), "submit", 6.0);      // 1.75 pending
    l.op(makeOp(K::Transfer, 4112, 7), "", 6.25);  // pcie 2
    l.op(makeOp(K::Control), "submit", 6.5);      // .25 pending
    l.op(makeOp(K::CryptoGpu, 4096, 7), "", 7.0);  // ocb .75
    l.op(makeOp(K::Control), "h2d_done", 7.5);    // ipc .5, 1 msg
    l.endCall(7.75);                              // tail: ipc .25
    // memcpyDtoH on HIX: the batched open lands in the call's tail.
    l.beginCall(Call::MemcpyDtoH, 8.0);            // app .25
    l.op(makeOp(K::CryptoCpu, 8192), "d2h_decrypt", 8.5);  // open .5
    l.endCall(10.5);                               // open tail 2
    // launchKernel: app time, then a submit deferred to the kernel.
    l.beginCall(Call::Other, 11.0);                // app .5
    l.op(makeOp(K::Control), "req_send", 11.5);    // ipc .5, 1 msg
    l.op(makeOp(K::Control), "submit", 13.5);      // 2 pending
    l.op(makeOp(K::Compute, 0, 7), "", 14.0);      // kernel 2.5
    l.op(makeOp(K::Control), "resp_recv", 14.5);   // ipc .5, 1 msg
    l.endCall(14.75);                              // ipc .25
    // A control-only submit (memAlloc's map) stays control.
    l.beginCall(Call::Other, 15.0);                // app .25
    l.op(makeOp(K::Control), "submit", 15.5);      // .5 pending
    l.endCall(16.0);                 // pending .5 + tail .5 -> ipc 1
    // Gdev staging: copy into the pinned buffer, then DMA.
    l.beginCall(Call::MemcpyHtoD, 16.5, 1000);     // app .5
    l.op(makeOp(K::Control), "h2d_stage", 17.5);   // stage 1, 1000 B
    l.op(makeOp(K::Control), "submit", 18.0);      // .5 pending
    l.op(makeOp(K::Transfer, 1000, 1), "", 18.25);  // pcie .75
    l.endCall(18.5);                               // pcie tail .25
    // Gdev drain: the copy out of the pinned buffer is the tail.
    l.beginCall(Call::MemcpyDtoH, 19.0, 500);      // app .5
    l.op(makeOp(K::Control), "submit", 19.5);      // .5 pending
    l.op(makeOp(K::Transfer, 500, 1), "", 19.75);  // pcie .75
    l.op(makeOp(K::Control), "d2h_drain", 20.0);   // stage .25, 500 B
    l.endCall(21.0);                               // stage tail 1
    l.exitRun(22.0);                               // app 1

    struct Expect
    {
        Layer layer;
        const char *name;
        double ms;
        std::uint64_t work;
    };
    const Expect expect[] = {
        {Layer::CryptoSeal, "crypto.seal", 1.0, 4096},
        {Layer::CryptoOpen, "crypto.open", 2.5, 8192},
        {Layer::GpuOcb, "gpu.ocb", 0.75, 4096},
        {Layer::GpuKernel, "gpu.kernel", 2.5, 1},
        {Layer::HixIpc, "hix.ipc", 3.75, 5},
        {Layer::MemStage, "mem.stage", 2.25, 1500},
        {Layer::PcieXfer, "pcie.xfer", 3.75, 4112 + 1000 + 500},
        {Layer::SgxInit, "sgx.init", 1.0, 0},
        {Layer::App, "workloads.app", 4.0, 0},
    };
    bool ok = true;
    for (const Expect &e : expect) {
        const double ms = l.totals().msOf(e.layer);
        const std::uint64_t work = l.totals().workOf(e.layer);
        if (std::fabs(ms - e.ms) > 1e-12 || work != e.work) {
            std::printf("selftest: %s = %.6f ms / %llu, want %.6f / "
                        "%llu\n",
                        e.name, ms, static_cast<unsigned long long>(work),
                        e.ms, static_cast<unsigned long long>(e.work));
            ok = false;
        }
    }
    // Everything but the .5 ms of runner glue is attributed.
    if (std::fabs(l.totals().totalMs() - 21.5) > 1e-12) {
        std::printf("selftest: attributed %.6f ms, want 21.5\n",
                    l.totals().totalMs());
        ok = false;
    }
    if (l.lastExit() != 22.0) {
        std::printf("selftest: last exit %.6f, want 22\n", l.lastExit());
        ok = false;
    }
    return ok;
}

}  // namespace hix::bench::e2e
