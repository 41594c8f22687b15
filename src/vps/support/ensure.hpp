#pragma once

#include <source_location>
#include <stdexcept>
#include <string_view>

namespace vps::support {

/// Error thrown when a framework invariant is violated. Distinguishing this
/// from std::logic_error lets tests assert on framework-detected misuse.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Throws InvariantError reading "file:line: message" for `loc`. This is
/// ensure()'s cold half. Call it directly, behind the check, when the
/// message has to be composed: `if (!ok) [[unlikely]] fail("x: " + name);`
/// builds the string only on failure, where ensure(ok, "x: " + name) would
/// build it on every call.
[[noreturn]] void fail(std::string_view message,
                       std::source_location loc = std::source_location::current());

/// Checks a precondition/invariant; throws InvariantError with location info.
/// Used instead of assert() so that violations are testable and survive
/// release builds (safety tooling must not silently continue on bad state).
/// A passing check with a literal message allocates nothing.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] fail(message, loc);
}

}  // namespace vps::support
