/**
 * @file
 * Host-time attribution for one recording thread, measured from
 * outside the simulator.
 *
 * The ledger sees three kinds of event, all on the thread that records
 * a session: the session's recorded window opening (RunConfig
 * shardHook), the start and end of every GpuApi call the workload makes
 * (a bench-owned GpuApi decorator), and every op the TraceRecorder
 * appends (a recorder observer). Functional work happens before the op
 * that describes it is recorded, so the host gap that ends at an op is
 * charged to that op's layer. Three refinements:
 *
 *  - The driver records its `submit` control op after the device has
 *    executed the command, so a `submit` gap is deferred to the device
 *    op recorded right after it (kernel, DMA, in-GPU OCB, DH). A
 *    `submit` with no device op (map, unmap, context create) stays a
 *    control cost.
 *  - The gap after a call's last op, up to the call's return, goes to
 *    the layer of that last op: on HIX the batched SealPool open at the
 *    end of memcpyDtoH, on Gdev the drain copy out of the pinned buffer.
 *  - Time inside Workload::run but outside every GpuApi call is the
 *    application's own work.
 *
 * Times are milliseconds on any monotonic clock; the ledger only
 * subtracts them, so the self-test feeds synthetic values.
 */

#ifndef HIX_BENCH_E2E_LEDGER_H_
#define HIX_BENCH_E2E_LEDGER_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/trace.h"

namespace hix::bench::e2e
{

/** Host-time layers, named `<module>.<quantity>` in the output. */
enum class Layer : std::uint8_t
{
    CryptoSeal,  //!< crypto: CPU sealing inside memcpyHtoD
    CryptoOpen,  //!< crypto: CPU opening inside memcpyDtoH
    GpuOcb,      //!< gpu: in-GPU OCB kernels
    GpuKernel,   //!< gpu: application kernels
    HixIpc,      //!< hix: IPC and driver control
    MemStage,    //!< mem: Gdev pinned-buffer staging copies
    PcieXfer,    //!< pcie: DMA and PIO
    SgxInit,     //!< sgx: task init, attestation, DH
    App,         //!< workloads: app work between GpuApi calls
};

inline constexpr std::size_t LayerCount = 9;

/** The kind of GpuApi call a span covers; only the copy direction
 *  changes attribution. */
enum class Call : std::uint8_t
{
    None,  //!< outside every call
    MemcpyHtoD,
    MemcpyDtoH,
    Other,  //!< memAlloc, memFree, loadModule, launchKernel
};

/** Per-layer totals: busy ms and a work count (bytes, ops or
 *  messages, depending on the layer). */
struct LayerTotals
{
    std::array<double, LayerCount> ms{};
    std::array<std::uint64_t, LayerCount> work{};

    double &msOf(Layer l) { return ms[static_cast<std::size_t>(l)]; }
    double msOf(Layer l) const { return ms[static_cast<std::size_t>(l)]; }
    std::uint64_t &workOf(Layer l)
    {
        return work[static_cast<std::size_t>(l)];
    }
    std::uint64_t workOf(Layer l) const
    {
        return work[static_cast<std::size_t>(l)];
    }
    double totalMs() const;
    LayerTotals &operator+=(const LayerTotals &other);
};

/** One recording thread's attribution state machine. */
class Ledger
{
  public:
    /** A session's recorded window opens. */
    void openWindow(double t);
    /** Workload::run starts / returns. */
    void enterRun(double t);
    void exitRun(double t);
    /** A GpuApi call starts; @p stage_bytes is the payload it stages
     *  (nominal bytes, memcpy calls only). */
    void beginCall(Call call, double t, std::uint64_t stage_bytes = 0);
    void endCall(double t);
    /** The recorder appended @p op with label @p label. */
    void op(const sim::Op &op, std::string_view label, double t);

    /** Wall of each completed Workload::run on this thread. */
    void
    addSessionMs(double ms)
    {
        session_ms_.push_back(ms);
    }

    const LayerTotals &totals() const { return totals_; }
    const std::vector<double> &sessionMs() const { return session_ms_; }
    /** Time of the last run exit (the thread's last useful work). */
    double lastExit() const { return last_exit_; }

  private:
    void charge(Layer layer, double ms);
    void flushPending();
    Layer classify(const sim::Op &op, std::string_view label) const;

    LayerTotals totals_;
    std::vector<double> session_ms_;
    double last_ = 0;
    double last_exit_ = 0;
    bool in_run_ = false;
    Call call_ = Call::None;
    std::uint64_t call_stage_bytes_ = 0;
    /** Layer of the current call's last op, once it has one. */
    bool call_has_op_ = false;
    Layer call_last_layer_ = Layer::HixIpc;
    /** A `submit` gap waiting for its device op. */
    bool pending_ = false;
    double pending_ms_ = 0;
};

/**
 * Feed a synthetic event sequence (a deferred submit, a control-only
 * submit, a memcpyDtoH tail, Gdev staging, app time between calls)
 * through a Ledger and compare every layer with hand-computed values.
 * Prints each mismatch; returns true when all match.
 */
bool selfTest();

}  // namespace hix::bench::e2e

#endif  // HIX_BENCH_E2E_LEDGER_H_
