#include "analysis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "vps/fault/codec.hpp"
#include "vps/support/crc.hpp"

namespace campaign_bench {

bool percentile_supported(std::size_t n, unsigned per_mille) noexcept {
  // Integer nearest rank: ceil(n * p / 1000) without floating-point drift
  // (0.9 * 100 in doubles is 90.00000000000001, whose ceil is 91).
  const std::size_t rank = (n * per_mille + 999) / 1000;
  return n >= rank && n - rank >= 10;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median_of_strided_minima(const std::vector<double>& samples, std::size_t groups) {
  if (samples.empty()) return 0.0;
  groups = std::clamp<std::size_t>(groups, 1, samples.size());
  std::vector<double> minima;
  for (std::size_t g = 0; g < groups; ++g) {
    double m = samples[g];
    for (std::size_t i = g + groups; i < samples.size(); i += groups) m = std::min(m, samples[i]);
    minima.push_back(m);
  }
  return percentile(std::move(minima), 0.5);
}

std::uint64_t failed_runs(const vps::fault::CampaignResult& result) noexcept {
  return result.count(vps::fault::Outcome::kSimCrash);
}

double BatchSpan::mean_busy_ns(std::size_t workers) const noexcept {
  return busy_ns / static_cast<double>(std::max<std::size_t>(1, workers));
}

double BatchSpan::idle_ns(std::size_t workers) const noexcept {
  return replay_span_ns() - mean_busy_ns(workers);
}

std::vector<BatchSpan> batch_spans(const std::vector<std::int64_t>& barriers_ns,
                                   const std::vector<ReplaySample>& samples,
                                   std::size_t batch_size) {
  std::vector<BatchSpan> spans(barriers_ns.size());
  for (const ReplaySample& s : samples) {
    if (s.run == kGoldenRun || batch_size == 0) continue;
    const std::size_t k = s.run / batch_size;
    if (k >= spans.size()) continue;
    BatchSpan& b = spans[k];
    if (b.replays == 0) {
      b.first_start_ns = s.start_ns;
      b.last_end_ns = s.end_ns;
    }
    b.first_start_ns = std::min(b.first_start_ns, s.start_ns);
    b.last_end_ns = std::max(b.last_end_ns, s.end_ns);
    b.busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    ++b.replays;
  }
  std::vector<BatchSpan> out;
  out.reserve(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k) {
    BatchSpan& b = spans[k];
    if (b.replays == 0) continue;
    b.batch = k;
    b.barrier_ns = barriers_ns[k];
    b.open_ns = k == 0 ? b.first_start_ns : barriers_ns[k - 1];
    out.push_back(b);
  }
  return out;
}

WallSplit split_wall(std::int64_t t0_ns, std::int64_t end_ns, const std::vector<BatchSpan>& spans,
                     std::size_t workers) {
  WallSplit w;
  w.wall_ns = static_cast<double>(end_ns - t0_ns);
  if (spans.empty()) return w;
  w.setup_ns = static_cast<double>(spans.front().open_ns - t0_ns);
  for (const BatchSpan& b : spans) {
    w.replay_ns += b.mean_busy_ns(workers);
    w.idle_ns += b.idle_ns(workers);
    w.coord_ns += b.coord_ns();
  }
  return w;
}

std::string record_line(const vps::fault::RunRecord& record, std::size_t run_index) {
  std::string line = "{\"kind\":\"record\"";
  vps::fault::codec::append_record(line, record, run_index);
  line += '}';
  return line;
}

std::uint32_t fold_digest(const vps::fault::CampaignResult& result, std::size_t runs) {
  vps::support::Crc32 crc;
  const auto bytes = [](const std::string& s) {
    return std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                         s.size());
  };
  const std::size_t n_records = std::min(runs, result.records.size());
  for (std::size_t i = 0; i < n_records; ++i) crc.update(bytes(record_line(result.records[i], i) + "\n"));
  const std::size_t n_curve = std::min(runs, result.coverage_curve.size());
  for (std::size_t i = 0; i < n_curve; ++i) {
    crc.update_u64(std::bit_cast<std::uint64_t>(result.coverage_curve[i]));
  }
  return crc.value();
}

FoldCheck check_prefix(const vps::fault::CampaignResult& fold,
                       const vps::fault::CampaignResult& reference) {
  FoldCheck check;
  check.compared = reference.records.size();
  check.digest = fold_digest(fold, check.compared);
  check.reference_digest = fold_digest(reference, check.compared);
  for (std::size_t i = 0; i < check.compared; ++i) {
    const bool same_record = i < fold.records.size() &&
                             record_line(fold.records[i], i) ==
                                 record_line(reference.records[i], i);
    const bool same_curve =
        i < fold.coverage_curve.size() && i < reference.coverage_curve.size() &&
        std::bit_cast<std::uint64_t>(fold.coverage_curve[i]) ==
            std::bit_cast<std::uint64_t>(reference.coverage_curve[i]);
    if (same_record && same_curve) continue;
    if (check.mismatched == 0) check.first_mismatch = i;
    ++check.mismatched;
  }
  return check;
}

}  // namespace campaign_bench
