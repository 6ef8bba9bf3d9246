#include "sim/trace_export.h"

#include <algorithm>
#include <map>

namespace hix::sim
{

namespace
{

/** Minimal JSON string escaping for op labels. */
std::string
escaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
    return out;
}

/**
 * Write @p ticks (ns) as exact decimal microseconds, the format's
 * unit, from integers only: a double through operator<< keeps six
 * significant digits, which rounds any timestamp past 1 s to 10 us.
 */
void
writeMicros(std::ostream &os, Tick ticks)
{
    const Tick ns = ticks % 1000;
    os << ticks / 1000 << '.' << static_cast<char>('0' + ns / 100)
       << static_cast<char>('0' + ns / 10 % 10)
       << static_cast<char>('0' + ns % 10);
}

}  // namespace

void
exportChromeTrace(const Trace &trace, const ScheduleResult &schedule,
                  std::ostream &os)
{
    // Stable tid per resource.
    std::map<ResourceId, int> tids;
    for (const Op &op : trace.ops())
        tids.emplace(op.resource, 0);
    int next_tid = 1;
    for (auto &[res, tid] : tids)
        tid = next_tid++;

    os << "{\"traceEvents\":[";
    bool first = true;

    // Thread-name metadata.
    for (const auto &[res, tid] : tids) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\""
           << res.toString() << "\"}}";
    }

    for (const Op &op : trace.ops()) {
        const std::string &label = trace.labelOf(op);
        os << ",{\"name\":\""
           << escaped(label.empty() ? opKindName(op.kind) : label)
           << "\",\"cat\":\"" << opKindName(op.kind)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tids[op.resource] << ",\"ts\":";
        writeMicros(os, schedule.start[op.id]);
        os << ",\"dur\":";
        writeMicros(os, std::max<Tick>(op.duration, 50));  // keep visible
        os << ",\"args\":{\"op\":" << op.id << ",\"bytes\":" << op.bytes;
        if (op.gpuCtx != NoGpuContext)
            os << ",\"gpu_ctx\":" << op.gpuCtx;
        os << "}}";
    }
    os << "]}";
}

}  // namespace hix::sim
