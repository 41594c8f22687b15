#include "vps/support/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "vps/support/ensure.hpp"

namespace vps::support {

bool write_file_atomic(const std::string& path, std::initializer_list<std::string_view> parts,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  // Records what failed, with errno read before remove() can clobber it.
  const auto fail = [&](const std::string& what, bool remove_tmp) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (remove_tmp) std::remove(tmp.c_str());
    return false;
  };
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail("cannot open " + tmp, /*remove_tmp=*/false);
  bool ok = true;
  for (const std::string_view part : parts) {
    ok = ok && std::fwrite(part.data(), 1, part.size(), f) == part.size();
  }
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return fail("short write to " + tmp, /*remove_tmp=*/true);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename to " + path + " failed", /*remove_tmp=*/true);
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path, std::string_view who) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    const int open_errno = errno;
    if (open_errno == ENOENT) return std::nullopt;
    fail(std::string(who) + ": cannot open " + path + ": " + std::strerror(open_errno));
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_failed = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_failed) {
    fail(std::string(who) + ": cannot read " + path + ": " + std::strerror(read_errno));
  }
  return text;
}

}  // namespace vps::support
