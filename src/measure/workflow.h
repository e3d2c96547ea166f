// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Aggregation workflows: the pictorial query language of paper §II-A as a
// validated DAG of measures. Build one with WorkflowBuilder:
//
//   WorkflowBuilder b(schema);
//   int m1 = b.AddBasic("M1", minute_gran, AggregateFn::kMedian, "PageCount");
//   int m2 = b.AddBasic("M2", hour_gran, AggregateFn::kMedian, "AdCount");
//   int m3 = b.AddExpression("M3", minute_gran,
//                            Expression::Source(0) / Expression::Source(1),
//                            {Self(m1), ParentChild(m2)});
//   int m4 = b.AddSourceAggregate("M4", minute_gran, AggregateFn::kAvg,
//                                 {Sibling(m3, "Time", -9, 0)});
//   Result<Workflow> wf = std::move(b).Build();

#ifndef CASM_MEASURE_WORKFLOW_H_
#define CASM_MEASURE_WORKFLOW_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cube/schema.h"
#include "measure/measure.h"

namespace casm {

/// A validated, immutable DAG of measures over one schema. Measures are
/// indexed densely; edges always point to lower indices, so measure order
/// is already topological.
class Workflow {
 public:
  const SchemaPtr& schema() const { return schema_; }
  int num_measures() const { return static_cast<int>(measures_.size()); }
  const Measure& measure(int index) const {
    return measures_[static_cast<size_t>(index)];
  }
  const std::vector<Measure>& measures() const { return measures_; }

  /// Indices of basic (kAggregateRecords) measures.
  std::vector<int> BasicMeasures() const;

  /// Returns the index of the measure named `name`, or NotFound.
  Result<int> MeasureIndex(const std::string& name) const;

  /// True if any measure has a sibling edge (the query then needs an
  /// overlapping distribution key, paper §III-B.2).
  bool HasSiblingEdges() const;

  /// Multi-line human-readable rendering of the workflow.
  std::string ToString() const;

  /// Graphviz DOT rendering of the aggregation workflow (the paper's
  /// Figure 1 style: one node per measure, one labeled edge per
  /// relationship).
  std::string ToDot() const;

 private:
  friend class WorkflowBuilder;
  friend Result<Workflow> ConcatWorkflows(
      const std::vector<const Workflow*>& members);
  SchemaPtr schema_;
  std::vector<Measure> measures_;
};

/// Concatenates validated workflows over one schema (same SchemaPtr)
/// into a single workflow: measures are copied in member order with edge
/// sources offset to their new indices and names prefixed "q<i>." so
/// they stay unique. Feasibility of a distribution key is checked per
/// measure (core/coverage.h), so a plan feasible for the concatenation
/// is feasible for every member — the multi-query optimizer plans for
/// the concatenation and evaluates the members against that one plan
/// (EvaluateParallelBatch, core/parallel_evaluator.h).
Result<Workflow> ConcatWorkflows(const std::vector<const Workflow*>& members);

/// Incremental workflow construction. Add* methods return the measure's
/// index for use as an edge source; structural errors surface in Build()
/// (so builders can be chained without per-call checks) except for
/// name-based lookups which abort on typos via CASM_CHECK.
class WorkflowBuilder {
 public:
  explicit WorkflowBuilder(SchemaPtr schema) : schema_(std::move(schema)) {}

  /// Basic measure: `fn` over attribute `field_name` per region of `gran`.
  int AddBasic(std::string name, Granularity gran, AggregateFn fn,
               const std::string& field_name);

  /// Composite measure: `fn` over the source values reached via `edges`.
  int AddSourceAggregate(std::string name, Granularity gran, AggregateFn fn,
                         std::vector<MeasureEdge> edges);

  /// Composite measure: arithmetic over single-valued source edges.
  int AddExpression(std::string name, Granularity gran, Expression expr,
                    std::vector<MeasureEdge> edges);

  /// Edge helpers.
  static MeasureEdge Self(int source);
  static MeasureEdge ChildParent(int source);
  static MeasureEdge ParentChild(int source);
  /// Sibling window over `attr_name` with coordinate offsets [lo, hi] at
  /// the target measure's granularity level.
  MeasureEdge Sibling(int source, const std::string& attr_name, int64_t lo,
                      int64_t hi) const;

  /// Validates the accumulated measures and produces the Workflow.
  Result<Workflow> Build() &&;

 private:
  int Add(Measure measure);

  SchemaPtr schema_;
  std::vector<Measure> measures_;
  Status deferred_error_;  // first error hit during Add* calls
};

}  // namespace casm

#endif  // CASM_MEASURE_WORKFLOW_H_
