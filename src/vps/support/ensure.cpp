#include "vps/support/ensure.hpp"

#include <string>

namespace vps::support {

void fail(std::string_view message, std::source_location loc) {
  std::string text = loc.file_name();
  text += ':';
  text += std::to_string(loc.line());
  text += ": ";
  text += message;
  throw InvariantError(text);
}

}  // namespace vps::support
