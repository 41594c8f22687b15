#pragma once

// Shared by the save-path tests of every campaign driver: per-process
// checkpoint paths, and a recorder that captures each checkpoint file a
// campaign writes and checks it byte for byte against to_jsonl() of the
// same record prefix.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "vps/fault/checkpoint.hpp"
#include "vps/obs/campaign_monitor.hpp"

namespace vps_test {

/// `name` under the test temp directory, suffixed with this process's pid:
/// two builds of one suite (ASan and TSan, say) can run at the same time
/// without sharing a checkpoint file.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

/// The file's bytes, or "" when it does not exist.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Snapshots the checkpoint file at every progress callback. Drivers report
/// progress before they save, so the snapshot at a barrier holds the
/// previous save; finish() takes the last one once the campaign returned.
/// A save identical to the one before it (a periodic and a preemption save
/// of the same prefix) shows up once.
class CheckpointSaveRecorder final : public vps::obs::CampaignMonitor {
 public:
  explicit CheckpointSaveRecorder(std::string path) : path_(std::move(path)) {}

  void on_progress(const vps::obs::CampaignProgress&) override { snapshot(); }
  void on_complete(const vps::obs::CampaignProgress&) override {}
  void finish() { snapshot(); }

  [[nodiscard]] const std::vector<std::string>& saves() const { return saves_; }

 private:
  void snapshot() {
    std::string text = read_file(path_);
    if (!text.empty() && (saves_.empty() || saves_.back() != text)) {
      saves_.push_back(std::move(text));
    }
  }

  std::string path_;
  std::vector<std::string> saves_;
};

/// Expects the recorded saves to be, in order, the checkpoints of the first
/// `sizes[i]` of `records`, each byte-identical to to_jsonl(). `head`
/// carries the driver tag, scenario name, config and golden observation.
inline void expect_saves_are_prefixes(const std::vector<std::string>& saves,
                                      vps::fault::CampaignCheckpoint head,
                                      const std::vector<vps::fault::RunRecord>& records,
                                      const std::vector<std::size_t>& sizes) {
  ASSERT_EQ(saves.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_LE(sizes[i], records.size());
    head.records.assign(records.begin(), records.begin() + static_cast<std::ptrdiff_t>(sizes[i]));
    EXPECT_EQ(saves[i], vps::fault::to_jsonl(head))
        << "save " << i << " (" << sizes[i] << " records) differs from to_jsonl";
  }
}

}  // namespace vps_test
