#pragma once

/// Whole-file reads and crash-safe whole-file replacement, shared by every
/// persistence surface that reloads and rewrites a file: campaign
/// checkpoints (fault/checkpoint) and the campaign server's job table
/// (dist/server).

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace vps::support {

/// Writes `parts` back to back into `path` + ".tmp", flushes it and renames
/// it over `path`, so a process killed mid-write leaves either the previous
/// file or the complete new one. Returns false on any failure, with what
/// failed (and the OS reason) in `error`; the temp file is then removed and
/// `path` is untouched. Callers choose whether a failure is fatal.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::initializer_list<std::string_view> parts,
                                     std::string* error = nullptr);

/// Reads all of `path`; nullopt when it does not exist. Any other failure to
/// open or read it throws support::InvariantError ("<who>: cannot open|read
/// <path>: <OS reason>"), so a short read never passes for the whole file.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path, std::string_view who);

}  // namespace vps::support
