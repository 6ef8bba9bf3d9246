/**
 * @file
 * Test-only reference bodies for the kernels whose production bodies
 * are written for the vectorizer: pf_band, bp_layerforward,
 * bp_adjust_weights, bfs_level and lud_block. Each is the kernel's
 * earlier straightforward loop, kept verbatim as the oracle: it loads
 * its arrays with loadArray() in declaration order, runs the loop on
 * the copies and stores the written arrays with storeArray(). The
 * references do not check their arguments or the graph they read, so
 * only valid launches may be run through them.
 */

#ifndef HIX_TESTS_WORKLOADS_REFERENCE_KERNELS_H_
#define HIX_TESTS_WORKLOADS_REFERENCE_KERNELS_H_

#include <string>

#include "gpu/kernel_registry.h"

namespace hix::workloads
{

/** The reference body of @p kernel; empty if it has none. */
gpu::KernelFn referenceKernel(const std::string &kernel);

}  // namespace hix::workloads

#endif  // HIX_TESTS_WORKLOADS_REFERENCE_KERNELS_H_
