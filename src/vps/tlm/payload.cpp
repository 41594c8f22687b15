#include "vps/tlm/payload.hpp"

#include <cstdio>

namespace vps::tlm {

std::string GenericPayload::to_string() const {
  const char* cmd = command_ == Command::kRead    ? "R"
                    : command_ == Command::kWrite ? "W"
                                                  : "I";
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s@0x%08llx len=%zu resp=%s%s", cmd,
                static_cast<unsigned long long>(address_), size_,
                vps::tlm::to_string(response_), poisoned_ ? " POISONED" : "");
  return buf;
}

}  // namespace vps::tlm
