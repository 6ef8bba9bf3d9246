/**
 * @file
 * Lightweight statistics: named scalars grouped under a StatGroup,
 * dumpable as aligned text. Modelled after gem5's stats package,
 * reduced to what the HIX evaluation needs.
 */

#ifndef HIX_SIM_STATS_H_
#define HIX_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace hix::sim
{

/** A running scalar statistic (count/sum). */
class Scalar
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        ++count_;
    }

    Scalar &
    operator+=(double v)
    {
        add(v);
        return *this;
    }

    Scalar &
    operator++()
    {
        add(1.0);
        return *this;
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
    }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A flat registry of named stats. Components create scalars by
 * name; dump() prints them sorted.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Get-or-create a scalar. */
    Scalar &scalar(const std::string &name) { return scalars_[name]; }

    const std::string &name() const { return name_; }

    /** Print all stats, one per line, "<group>.<name> value". */
    void dump(std::ostream &os) const;

    void reset();

  private:
    std::string name_;
    std::map<std::string, Scalar> scalars_;
};

}  // namespace hix::sim

#endif  // HIX_SIM_STATS_H_
