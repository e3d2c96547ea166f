// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "local/measure_table.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"

namespace casm {

int64_t MeasureResultSet::TotalResults() const {
  int64_t total = 0;
  for (const MeasureValueMap& m : per_measure_) {
    total += static_cast<int64_t>(m.size());
  }
  return total;
}

Status MeasureResultSet::MergeDisjoint(MeasureResultSet&& other) {
  CASM_CHECK_EQ(num_measures(), other.num_measures());
  for (int m = 0; m < num_measures(); ++m) {
    MeasureValueMap& src = other.per_measure_[static_cast<size_t>(m)];
    // merge() relinks every node whose key is new here; what it leaves
    // behind is a region both sets hold.
    per_measure_[static_cast<size_t>(m)].merge(src);
    if (!src.empty()) {
      return Status::FailedPrecondition(
          "duplicate result for measure " + std::to_string(m) +
          " (distribution rule 2 violated)");
    }
  }
  return Status::OK();
}

std::vector<MeasureResult> MeasureResultSet::Sorted(int measure) const {
  const MeasureValueMap& map = per_measure_[static_cast<size_t>(measure)];
  std::vector<MeasureResult> out;
  out.reserve(map.size());
  for (const auto& [coords, value] : map) {
    out.push_back(MeasureResult{coords, value});
  }
  std::sort(out.begin(), out.end(),
            [](const MeasureResult& a, const MeasureResult& b) {
              return a.coords < b.coords;
            });
  return out;
}

namespace {

bool ValuesClose(double a, double b, double tolerance) {
  if (a == b) return true;
  if (std::isnan(a) && std::isnan(b)) return true;
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= tolerance * scale;
}

std::string CoordsDebug(const Coords& coords) {
  std::string out = "(";
  for (size_t i = 0; i < coords.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(coords[i]);
  }
  out += ")";
  return out;
}

}  // namespace

Status CompareResultSets(const MeasureResultSet& expected,
                         const MeasureResultSet& actual, double tolerance) {
  if (expected.num_measures() != actual.num_measures()) {
    return Status::FailedPrecondition("measure count mismatch");
  }
  for (int m = 0; m < expected.num_measures(); ++m) {
    const MeasureValueMap& exp = expected.values(m);
    const MeasureValueMap& act = actual.values(m);
    if (exp.size() != act.size()) {
      return Status::FailedPrecondition(
          "measure " + std::to_string(m) + ": expected " +
          std::to_string(exp.size()) + " results, got " +
          std::to_string(act.size()));
    }
    for (const auto& [coords, value] : exp) {
      auto it = act.find(coords);
      if (it == act.end()) {
        return Status::FailedPrecondition("measure " + std::to_string(m) +
                                          ": missing region " +
                                          CoordsDebug(coords));
      }
      if (!ValuesClose(value, it->second, tolerance)) {
        return Status::FailedPrecondition(
            "measure " + std::to_string(m) + ": region " +
            CoordsDebug(coords) + " expected " + std::to_string(value) +
            " got " + std::to_string(it->second));
      }
    }
  }
  return Status::OK();
}

}  // namespace casm
