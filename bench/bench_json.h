/**
 * @file
 * Tiny shared machine-readable results writer for the bench binaries.
 *
 * Every bench_* binary writes BENCH_<name>.json in its working
 * directory with one row per measured configuration. The schema is
 * deliberately flat so CI trending and ad-hoc jq stay trivial:
 *
 *   {
 *     "bench": "<name>",
 *     "rows": [
 *       {"bench": "<name>", "config": "<what was run>",
 *        "ticks": <simulated ticks>, "host_ms": <wall clock>,
 *        ...optional numeric metrics...}
 *     ]
 *   }
 *
 * "ticks" is simulated time from the scheduler (0 for pure host-side
 * microbenches); "host_ms" is real wall-clock spent producing the
 * row. Reference results are checked in under bench/results/.
 */

#ifndef HIX_BENCH_BENCH_JSON_H_
#define HIX_BENCH_BENCH_JSON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace hix::bench
{

/** Wall-clock stopwatch for the host_ms column. */
class HostTimer
{
    using Clock = std::chrono::steady_clock;

  public:
    HostTimer() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - start_)
            .count();
    }

  private:
    Clock::time_point start_;
};

/** Collects rows and writes BENCH_<name>.json. */
class BenchJson
{
  public:
    /** One result row; metric() appends optional numeric columns.
     *  The reference returned by add() is invalidated by the next
     *  add(), so chain metric() calls immediately. */
    class Row
    {
      public:
        Row &
        metric(std::string key, double value)
        {
            metrics_.emplace_back(std::move(key), value);
            return *this;
        }

      private:
        friend class BenchJson;
        std::string config_;
        std::uint64_t ticks_ = 0;
        double host_ms_ = 0.0;
        std::vector<std::pair<std::string, double>> metrics_;
    };

    explicit BenchJson(std::string name) : name_(std::move(name)) {}

    Row &
    add(std::string config, std::uint64_t ticks, double host_ms)
    {
        rows_.emplace_back();
        Row &row = rows_.back();
        row.config_ = std::move(config);
        row.ticks_ = ticks;
        row.host_ms_ = host_ms;
        return row;
    }

    /**
     * Write BENCH_<name>.json to the working directory. False, with a
     * message on stderr, when the file cannot be opened, any write
     * fails or closing it fails; a bench's main() then exits non-zero.
     */
    bool
    write() const
    {
        const std::string path = "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: could not open %s\n",
                         path.c_str());
            return false;
        }
        bool ok = std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                               escaped(name_).c_str()) >= 0;
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &row = rows_[i];
            ok = ok && std::fprintf(
                           f,
                           "    {\"bench\": \"%s\", \"config\": \"%s\", "
                           "\"ticks\": %llu, \"host_ms\": %.3f",
                           escaped(name_).c_str(),
                           escaped(row.config_).c_str(),
                           static_cast<unsigned long long>(row.ticks_),
                           row.host_ms_) >= 0;
            // %.12g keeps integer-valued metrics (tick counts in the
            // low billions, e.g. bench_service's p99) exact so gates can
            // compare them with ==, while still trimming float noise.
            for (const auto &[key, value] : row.metrics_)
                ok = ok && std::fprintf(f, ", \"%s\": %.12g",
                                        escaped(key).c_str(), value) >= 0;
            ok = ok && std::fprintf(f, "}%s\n",
                                    i + 1 < rows_.size() ? "," : "") >= 0;
        }
        ok = ok && std::fprintf(f, "  ]\n}\n") >= 0;
        ok = std::fclose(f) == 0 && ok;
        if (!ok) {
            std::fprintf(stderr, "error: could not write %s\n",
                         path.c_str());
            return false;
        }
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    static std::string
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

    std::string name_;
    std::vector<Row> rows_;
};

}  // namespace hix::bench

#endif  // HIX_BENCH_BENCH_JSON_H_
