/**
 * @file
 * Fatal-error helpers, in the spirit of gem5's base/logging.hh:
 * panic() for internal model bugs, fatal() for user configuration
 * errors.
 */

#ifndef HIX_COMMON_LOGGING_H_
#define HIX_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace hix
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

}  // namespace detail

/** Abort: something happened that indicates a bug in the model. */
#define hix_panic(...) \
    ::hix::detail::panicImpl(__FILE__, __LINE__, \
                             ::hix::detail::format(__VA_ARGS__))

/** Exit: the simulation cannot continue due to a user/config error. */
#define hix_fatal(...) \
    ::hix::detail::fatalImpl(__FILE__, __LINE__, \
                             ::hix::detail::format(__VA_ARGS__))

}  // namespace hix

#endif  // HIX_COMMON_LOGGING_H_
