// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Containers for measure results: per-measure maps from region coordinates
// to values, with the disjoint-merge used to assemble the final answer from
// per-block results (paper §III-B rules 1 and 2: the union of local results
// is the answer and blocks never emit overlapping results).

#ifndef CASM_LOCAL_MEASURE_TABLE_H_
#define CASM_LOCAL_MEASURE_TABLE_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cube/region.h"
#include "measure/measure.h"

namespace casm {

/// Values of one measure, keyed by region coordinates.
using MeasureValueMap = std::unordered_map<Coords, double, CoordsHash>;

/// Results for every measure of a workflow. Movable, cheap when empty.
class MeasureResultSet {
 public:
  MeasureResultSet() = default;
  explicit MeasureResultSet(int num_measures)
      : per_measure_(static_cast<size_t>(num_measures)) {}

  int num_measures() const { return static_cast<int>(per_measure_.size()); }

  MeasureValueMap& mutable_values(int measure) {
    return per_measure_[static_cast<size_t>(measure)];
  }
  const MeasureValueMap& values(int measure) const {
    return per_measure_[static_cast<size_t>(measure)];
  }

  int64_t TotalResults() const;

  /// Moves `other`'s results in, failing with FailedPrecondition naming
  /// the measure if any (measure, region) appears in both — this is how
  /// the evaluator enforces the no-duplicate-results distribution rule.
  /// Moves the map nodes, never copies them; on failure the duplicates
  /// (and any later measure's results) stay behind in `other`.
  Status MergeDisjoint(MeasureResultSet&& other);

  /// Results of `measure` sorted by coordinates (for comparison and
  /// deterministic output).
  std::vector<MeasureResult> Sorted(int measure) const;

 private:
  std::vector<MeasureValueMap> per_measure_;
};

/// Compares two result sets; returns FailedPrecondition describing the
/// first mismatch if they differ by more than `tolerance` (relative, with
/// an absolute floor of the same magnitude) anywhere.
Status CompareResultSets(const MeasureResultSet& expected,
                         const MeasureResultSet& actual, double tolerance);

}  // namespace casm

#endif  // CASM_LOCAL_MEASURE_TABLE_H_
