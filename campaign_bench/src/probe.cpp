#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>

#include <unistd.h>

namespace campaign_bench {

namespace fault = vps::fault;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::uint32_t thread_number() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

class ProbeScenario final : public fault::Scenario {
 public:
  ProbeScenario(std::unique_ptr<fault::Scenario> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}
  ~ProbeScenario() override { probe_.deposit(std::move(samples_)); }
  ProbeScenario(const ProbeScenario&) = delete;
  ProbeScenario& operator=(const ProbeScenario&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] vps::sim::Time duration() const override { return inner_->duration(); }
  [[nodiscard]] std::vector<fault::FaultType> fault_types() const override {
    return inner_->fault_types();
  }

  [[nodiscard]] fault::Observation run(const fault::FaultDescriptor* fault,
                                       std::uint64_t seed) override {
    // The drivers set the replay mode on the instance they hold — this one.
    inner_->set_snapshot_replay(snapshot_replay());
    const bool cold = fault != nullptr && primed_seed_ != seed;
    primed_seed_ = seed;
    const bool record = probe_.full() || (fault != nullptr && !recorded_faulty_);
    if (!record) return inner_->run(fault, seed);

    ReplaySample s;
    s.run = fault != nullptr ? fault->id - 1 : kGoldenRun;  // ids count from 1
    s.pid = static_cast<std::uint32_t>(::getpid());
    s.tid = thread_number();
    s.cold = cold;
    s.start_ns = now_ns();
    fault::Observation obs = inner_->run(fault, seed);
    s.end_ns = now_ns();
    samples_.push_back(s);
    recorded_faulty_ = recorded_faulty_ || fault != nullptr;
    return obs;
  }

 private:
  std::unique_ptr<fault::Scenario> inner_;
  Probe& probe_;
  std::vector<ReplaySample> samples_;
  std::optional<std::uint64_t> primed_seed_;  // seed whose epochs this instance holds
  bool recorded_faulty_ = false;
};

}  // namespace

Probe::Probe(std::string dir, bool full) : dir_(std::move(dir)), full_(full), owner_(::getpid()) {
  std::filesystem::create_directories(dir_);
}

std::unique_ptr<fault::Scenario> Probe::wrap(std::unique_ptr<fault::Scenario> inner) {
  return std::make_unique<ProbeScenario>(std::move(inner), *this);
}

void Probe::deposit(std::vector<ReplaySample>&& samples) noexcept {
  if (samples.empty()) return;
  if (::getpid() == owner_) {
    try {
      std::lock_guard<std::mutex> lock(mutex_);
      kept_.insert(kept_.end(), samples.begin(), samples.end());
    } catch (...) {
      std::fprintf(stderr, "campaign_bench: lost %zu replay samples (out of memory)\n",
                   samples.size());
    }
    return;
  }
  // Worker process: one file per dying instance, named so that concurrent
  // workers and several instances of one worker never collide.
  static std::atomic<unsigned> serial{0};
  char path[4096];
  std::snprintf(path, sizeof path, "%s/samples.%d.%u.txt", dir_.c_str(), static_cast<int>(::getpid()),
                serial.fetch_add(1));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "campaign_bench: cannot write %s\n", path);
    return;
  }
  for (const ReplaySample& s : samples) {
    std::fprintf(f, "%" PRIu64 " %" PRId64 " %" PRId64 " %" PRIu32 " %" PRIu32 " %d\n", s.run,
                 s.start_ns, s.end_ns, s.pid, s.tid, s.cold ? 1 : 0);
  }
  std::fclose(f);
}

std::vector<ReplaySample> Probe::collect() {
  std::vector<ReplaySample> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.swap(kept_);
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("samples.", 0) == 0) files.push_back(entry.path());
  }
  for (const std::filesystem::path& path : files) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    ReplaySample s;
    int cold = 0;
    while (std::fscanf(f, "%" SCNu64 " %" SCNd64 " %" SCNd64 " %" SCNu32 " %" SCNu32 " %d", &s.run,
                       &s.start_ns, &s.end_ns, &s.pid, &s.tid, &cold) == 6) {
      s.cold = cold != 0;
      out.push_back(s);
    }
    std::fclose(f);
    std::filesystem::remove(path);
  }
  return out;
}

}  // namespace campaign_bench
