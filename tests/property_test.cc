// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Property-based tests: randomized workflows + randomized feasible plans.
// Invariants (DESIGN.md §5):
//   1. the derived minimal key passes the independent feasibility checker;
//   2. any key accepted by the checker yields parallel results identical
//      to the reference evaluator, for random clustering factors, reducer
//      counts, early aggregation and combined sort;
//   3. generalizing a feasible key preserves feasibility (Theorem 1);
//   4. block results never overlap (enforced inside the evaluator by the
//      disjoint merge — a violation fails the run).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coverage.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "data/generator.h"
#include "local/reference_evaluator.h"

namespace casm {
namespace {

SchemaPtr PropertySchema() {
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 32, {4}, {"x0", "x1"}).value(),
       Hierarchy::Numeric("T", 64, {4, 16}, {"t0", "t1", "t2"}).value()});
}

Granularity RandomGranularity(Rng& rng, const Schema& schema) {
  Granularity g = Granularity::Top(schema);
  for (int a = 0; a < schema.num_attributes(); ++a) {
    g.set_level(a, static_cast<LevelId>(rng.Uniform(
                       static_cast<uint64_t>(schema.attribute(a).num_levels()))));
  }
  return g;
}

Granularity RandomGeneralization(Rng& rng, const Schema& schema,
                                 const Granularity& g) {
  Granularity out = g;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    LevelId max_level = schema.attribute(a).all_level();
    out.set_level(a, static_cast<LevelId>(
                         rng.UniformRange(g.level(a), max_level)));
  }
  return out;
}

AggregateFn RandomFn(Rng& rng, bool allow_holistic) {
  std::vector<AggregateFn> fns = {AggregateFn::kCount, AggregateFn::kSum,
                                  AggregateFn::kMin, AggregateFn::kMax,
                                  AggregateFn::kAvg, AggregateFn::kVariance};
  if (allow_holistic) {
    fns.push_back(AggregateFn::kMedian);
    fns.push_back(AggregateFn::kDistinctCount);
  }
  return fns[rng.Uniform(fns.size())];
}

/// Builds a random valid workflow with 2-6 measures.
Workflow RandomWorkflow(Rng& rng, const SchemaPtr& schema,
                        bool allow_holistic) {
  const int num_measures = static_cast<int>(2 + rng.Uniform(5));
  WorkflowBuilder b(schema);
  std::vector<Granularity> grans;

  // First measure is always basic.
  Granularity g0 = RandomGranularity(rng, *schema);
  b.AddBasic("m0", g0, RandomFn(rng, allow_holistic),
             schema->attribute(static_cast<int>(rng.Uniform(2))).name());
  grans.push_back(g0);

  for (int i = 1; i < num_measures; ++i) {
    // Appended piecewise: g++ 12 at -O3 reads `"literal" +
    // std::string&&` as a possibly overlapping memcpy (-Wrestrict).
    std::string name = "m";
    name += std::to_string(i);
    const int source = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i)));
    const Granularity& sg = grans[static_cast<size_t>(source)];
    switch (rng.Uniform(5)) {
      case 0: {  // independent basic
        Granularity g = RandomGranularity(rng, *schema);
        b.AddBasic(name, g, RandomFn(rng, allow_holistic),
                   schema->attribute(static_cast<int>(rng.Uniform(2))).name());
        grans.push_back(g);
        break;
      }
      case 1: {  // child/parent rollup
        Granularity g = RandomGeneralization(rng, *schema, sg);
        b.AddSourceAggregate(name, g, RandomFn(rng, allow_holistic),
                             {WorkflowBuilder::ChildParent(source)});
        grans.push_back(g);
        break;
      }
      case 2: {  // expression over self (+ optional parent)
        std::vector<MeasureEdge> edges = {WorkflowBuilder::Self(source)};
        Expression expr = Expression::Source(0) + Expression::Constant(1.0);
        // Try to add a parent/child operand from an earlier measure whose
        // granularity generalizes this one.
        for (int j = 0; j < i; ++j) {
          if (j != source &&
              grans[static_cast<size_t>(j)].IsMoreGeneralOrEqual(sg)) {
            edges.push_back(WorkflowBuilder::ParentChild(j));
            expr = Expression::Source(0) / Expression::Source(1);
            break;
          }
        }
        b.AddExpression(name, sg, expr, std::move(edges));
        grans.push_back(sg);
        break;
      }
      case 3: {  // sibling window on T (if non-ALL in the source gran)
        int t = schema->AttributeIndex("T").value();
        if (schema->attribute(t).is_all(sg.level(t))) {
          Granularity g = RandomGeneralization(rng, *schema, sg);
          b.AddSourceAggregate(name, g, RandomFn(rng, allow_holistic),
                               {WorkflowBuilder::ChildParent(source)});
          grans.push_back(g);
          break;
        }
        int64_t lo = rng.UniformRange(-4, 1);
        int64_t hi = rng.UniformRange(lo, lo + 4);
        b.AddSourceAggregate(name, sg, RandomFn(rng, allow_holistic),
                             {b.Sibling(source, "T", lo, hi)});
        grans.push_back(sg);
        break;
      }
      default: {  // mixed: self + child of a finer earlier measure
        std::vector<MeasureEdge> edges = {WorkflowBuilder::Self(source)};
        for (int j = 0; j < i; ++j) {
          if (j != source &&
              sg.IsMoreGeneralOrEqual(grans[static_cast<size_t>(j)])) {
            edges.push_back(WorkflowBuilder::ChildParent(j));
            break;
          }
        }
        b.AddSourceAggregate(name, sg, RandomFn(rng, allow_holistic),
                             std::move(edges));
        grans.push_back(sg);
        break;
      }
    }
  }
  Result<Workflow> wf = std::move(b).Build();
  EXPECT_TRUE(wf.ok()) << wf.status();
  return std::move(wf).value();
}

TEST(PropertyTest, DerivedKeysFeasibleAndPlansExact) {
  SchemaPtr schema = PropertySchema();
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed * 7919 + 17);
    const bool allow_holistic = rng.Uniform(2) == 0;
    Workflow wf = RandomWorkflow(rng, schema, allow_holistic);
    Table table =
        GenerateUniformTable(schema, 400 + static_cast<int64_t>(rng.Uniform(800)),
                             seed * 31 + 7);

    DistributionKey key = DeriveDistributionKeys(wf).query_key;
    Status feasible = CheckFeasible(wf, key);
    ASSERT_TRUE(feasible.ok())
        << "seed " << seed << ": " << feasible.ToString() << "\n"
        << wf.ToString();

    MeasureResultSet expected = EvaluateReference(wf, table);

    ExecutionPlan plan;
    plan.key = key;
    plan.clustering_factor = 1 + static_cast<int64_t>(rng.Uniform(8));
    plan.combined_sort = rng.Uniform(2) == 0;
    plan.early_aggregation = false;
    if (!allow_holistic && rng.Uniform(2) == 0) plan.early_aggregation = true;

    ParallelEvalOptions opts;
    opts.num_mappers = 1 + static_cast<int>(rng.Uniform(4));
    opts.num_reducers = 1 + static_cast<int>(rng.Uniform(8));
    opts.num_threads = 2;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, plan, opts);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status()
                             << "\n" << wf.ToString();
    Status match = CompareResultSets(expected, result->results, 1e-9);
    EXPECT_TRUE(match.ok()) << "seed " << seed << ": " << match.ToString()
                            << "\nplan " << plan.ToString(*schema) << "\n"
                            << wf.ToString();
  }
}

TEST(PropertyTest, GeneralizationPreservesFeasibility) {
  // Theorem 1 over random workflows and random generalizations.
  SchemaPtr schema = PropertySchema();
  for (uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    Workflow wf = RandomWorkflow(rng, schema, true);
    DistributionKey key = DeriveDistributionKeys(wf).query_key;
    ASSERT_TRUE(IsFeasible(wf, key));

    DistributionKey generalized = key;
    for (int a = 0; a < schema->num_attributes(); ++a) {
      KeyComponent& c = generalized.mutable_component(a);
      if (rng.Uniform(2) == 0) continue;
      if (c.annotated()) {
        // Annotated attributes generalize by widening or rolling to ALL
        // (paper §III-B.2's minimality characterization).
        if (rng.Uniform(2) == 0) {
          c.lo -= static_cast<int64_t>(rng.Uniform(3));
          c.hi += static_cast<int64_t>(rng.Uniform(3));
        } else {
          c = KeyComponent{schema->attribute(a).all_level(), 0, 0};
        }
      } else {
        c.level = static_cast<LevelId>(rng.UniformRange(
            c.level, schema->attribute(a).all_level()));
      }
    }
    EXPECT_TRUE(IsFeasible(wf, generalized)) << "seed " << seed;
  }
}

TEST(PropertyTest, RandomFeasibleKeysAreExact) {
  // Any checker-approved key must produce exact results, even if it is not
  // the derived one.
  SchemaPtr schema = PropertySchema();
  int accepted = 0;
  for (uint64_t seed = 200; seed < 230; ++seed) {
    Rng rng(seed);
    Workflow wf = RandomWorkflow(rng, schema, true);
    Table table = GenerateUniformTable(schema, 500, seed);

    // Random key: random levels, random annotation on T.
    DistributionKey key = DeriveDistributionKeys(wf).query_key;
    for (int a = 0; a < schema->num_attributes(); ++a) {
      KeyComponent& c = key.mutable_component(a);
      c.level = static_cast<LevelId>(rng.UniformRange(
          0, schema->attribute(a).all_level()));
      c.lo = -static_cast<int64_t>(rng.Uniform(4));
      c.hi = static_cast<int64_t>(rng.Uniform(4));
      if (schema->attribute(a).is_all(c.level)) {
        c.lo = 0;
        c.hi = 0;
      }
    }
    if (!IsFeasible(wf, key)) continue;
    ++accepted;

    MeasureResultSet expected = EvaluateReference(wf, table);
    ExecutionPlan plan;
    plan.key = key;
    plan.clustering_factor = 1 + static_cast<int64_t>(rng.Uniform(4));
    ParallelEvalOptions opts;
    opts.num_mappers = 2;
    opts.num_reducers = 3;
    opts.num_threads = 2;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, plan, opts);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    Status match = CompareResultSets(expected, result->results, 1e-9);
    EXPECT_TRUE(match.ok()) << "seed " << seed << ": " << match.ToString();
  }
  EXPECT_GT(accepted, 3);  // the sweep must actually exercise the property
}

}  // namespace
}  // namespace casm
