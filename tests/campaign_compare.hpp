#pragma once

// The one result comparator of the campaign-driver suites: two results
// are identical when every record encodes to the same checkpoint line and
// every aggregate matches bitwise.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "vps/fault/campaign.hpp"
#include "vps/fault/codec.hpp"

namespace vps_test {

/// The checkpoint line of run `index`: every descriptor field, the outcome,
/// the crash text and the provenance, doubles as hexfloat.
inline std::string record_line(const vps::fault::RunRecord& record, std::size_t index) {
  std::string line;
  vps::fault::codec::append_record(line, record, index);
  return line;
}

inline void expect_identical(const vps::fault::CampaignResult& a,
                             const vps::fault::CampaignResult& b) {
  EXPECT_EQ(a.runs_executed, b.runs_executed);
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.faults_to_first_hazard, b.faults_to_first_hazard);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.hazard_probability.estimate, b.hazard_probability.estimate);
  EXPECT_EQ(a.hazard_probability.lo, b.hazard_probability.lo);
  EXPECT_EQ(a.hazard_probability.hi, b.hazard_probability.hi);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(record_line(a.records[i], i), record_line(b.records[i], i));
  }
  ASSERT_EQ(a.coverage_curve.size(), b.coverage_curve.size());
  for (std::size_t i = 0; i < a.coverage_curve.size(); ++i) {
    EXPECT_EQ(a.coverage_curve[i], b.coverage_curve[i]) << "curve diverges at run " << i;
  }
  ASSERT_EQ(a.quarantine.size(), b.quarantine.size());
  for (std::size_t i = 0; i < a.quarantine.size(); ++i) {
    EXPECT_EQ(a.quarantine[i].fault.id, b.quarantine[i].fault.id) << "quarantine entry " << i;
    EXPECT_EQ(a.quarantine[i].what, b.quarantine[i].what) << "quarantine entry " << i;
    EXPECT_EQ(a.quarantine[i].attempts, b.quarantine[i].attempts) << "quarantine entry " << i;
  }
}

}  // namespace vps_test
