#include "common/logging.h"

#include <cstdio>

namespace hix
{
namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

}  // namespace detail
}  // namespace hix
