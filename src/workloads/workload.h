/**
 * @file
 * Workload framework for the evaluation: the matrix microbenchmarks
 * of Figure 6 / Table 4 and the Rodinia applications of Figure 7 /
 * Table 5.
 *
 * Each workload bundles (1) functional GPU kernels registered on the
 * device, (2) GTX-580-calibrated cost models that charge nominal-size
 * execution time, and (3) a host program that allocates, transfers,
 * launches, and verifies results against a CPU reference. The
 * fixed-seed input and the reference's expected output form a
 * process-wide immutable fixture, built once per (workload, size) and
 * shared by every session; each run still verifies its own results.
 *
 * Problem scaling: workloads run *functionally* at nominal/scale of
 * the paper's sizes (so a software model can execute them), while all
 * *timed* byte counts and kernel cost models use the nominal sizes.
 * Each workload declares the scale it supports.
 */

#ifndef HIX_WORKLOADS_WORKLOAD_H_
#define HIX_WORKLOADS_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_device.h"
#include "workloads/gpu_api.h"

namespace hix::workloads
{

/** Nominal data movement of a workload (Table 4/5 columns). */
struct TransferSpec
{
    std::uint64_t htodBytes = 0;
    std::uint64_t dtohBytes = 0;
};

/** A runnable benchmark application. */
class Workload
{
  public:
    explicit Workload(std::string name) : name_(std::move(name)) {}
    virtual ~Workload() = default;

    const std::string &name() const { return name_; }

    /**
     * Timing-size decoupling factor this workload is designed for
     * (a perfect square for 2-D problems). Machines running the
     * workload must configure runtimes with the same scale.
     */
    virtual std::uint64_t timingScale() const = 0;

    /** Nominal transfer volumes (for reports). */
    virtual TransferSpec nominalTransfers() const = 0;

    /** Register this workload's kernels on the device. */
    virtual void registerKernels(gpu::GpuDevice &device) = 0;

    /**
     * Execute the full application through @p api (alloc, copy in,
     * kernels, copy out, verify, free). Returns non-OK on any failure
     * including result-verification mismatch. May run concurrently
     * with other instances on other threads; may read process-wide
     * immutable fixtures and must not mutate them, and verifies the
     * results that came back through @p api.
     */
    virtual Status run(GpuApi &api) = 0;

  private:
    std::string name_;
};

// ----- Factories -----------------------------------------------------

/** Integer matrix addition A+B=C at nominal dimension @p n. */
std::unique_ptr<Workload> makeMatrixAdd(std::uint32_t n);

/** Integer matrix multiplication A*B=C at nominal dimension @p n. */
std::unique_ptr<Workload> makeMatrixMul(std::uint32_t n);

/** The nine Rodinia applications of Table 5, paper problem sizes. */
std::vector<std::unique_ptr<Workload>> makeRodiniaSuite();

/** One Rodinia app by its Table 5 abbreviation (BP, BFS, GS, HS,
 * LUD, NW, NN, PF, SRAD). */
std::unique_ptr<Workload> makeRodinia(const std::string &abbrev);

}  // namespace hix::workloads

#endif  // HIX_WORKLOADS_WORKLOAD_H_
