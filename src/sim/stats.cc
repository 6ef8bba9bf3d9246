#include "sim/stats.h"

namespace hix::sim
{

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, s] : scalars_) {
        os << name_ << '.' << name << ' ' << s.sum() << " (count "
           << s.count() << ")\n";
    }
}

void
StatGroup::reset()
{
    for (auto &[name, s] : scalars_)
        s.reset();
}

}  // namespace hix::sim
