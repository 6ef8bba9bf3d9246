/**
 * @file
 * Export a scheduled trace as Chrome trace-event JSON
 * (chrome://tracing, Perfetto): one row per modelled resource, one
 * slice per op. Lets users see the pipelining and context-switch
 * behaviour behind every number in EXPERIMENTS.md.
 */

#ifndef HIX_SIM_TRACE_EXPORT_H_
#define HIX_SIM_TRACE_EXPORT_H_

#include <ostream>
#include <string>

#include "sim/scheduler.h"
#include "sim/trace.h"

namespace hix::sim
{

/**
 * Write @p trace with its @p schedule as trace-event JSON to @p os.
 * Timestamps and durations are emitted as exact decimal microseconds
 * (the format's native unit) with nanosecond digits; ops shorter than
 * 50 ns are widened to 50 ns so they stay visible.
 */
void exportChromeTrace(const Trace &trace,
                       const ScheduleResult &schedule, std::ostream &os);

}  // namespace hix::sim

#endif  // HIX_SIM_TRACE_EXPORT_H_
