#pragma once

/// Two-pass assembler for the AR32 ISA. Supports labels, .org/.word/.space
/// directives, numeric literals (decimal, hex, 'char'), comments (';' or
/// '#'), and the pseudo-instructions li / mov / j / call / ret.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace vps::hw {

/// Largest image assemble() lays out (origin to the end of the last item),
/// far above any firmware in this repository (at most a few hundred bytes).
inline constexpr std::uint64_t kMaxImageBytes = 16u << 20;

/// Assembled image plus symbol table.
struct Program {
  std::uint32_t origin = 0;
  std::vector<std::uint8_t> image;
  std::map<std::string, std::uint32_t> labels;

  [[nodiscard]] std::uint32_t label(const std::string& name) const;
  [[nodiscard]] std::size_t size() const noexcept { return image.size(); }
};

/// Error with source line information.
class AsmError : public std::runtime_error {
 public:
  AsmError(std::size_t line, const std::string& message)
      : std::runtime_error("asm line " + std::to_string(line) + ": " + message), line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Assembles the given source; throws AsmError on any syntax problem.
[[nodiscard]] Program assemble(const std::string& source, std::uint32_t origin = 0);

}  // namespace vps::hw
