// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/optimizer.h"

#include <algorithm>

#include "common/logging.h"
#include "core/cost_model.h"
#include "core/coverage.h"
#include "core/key_derivation.h"

namespace casm {
namespace {

/// Rolls the annotated attributes in `except` up to ALL, keeping `keep`.
DistributionKey RollUpAnnotated(const Schema& schema,
                                const DistributionKey& key, int keep) {
  DistributionKey out = key;
  for (int a = 0; a < key.num_attributes(); ++a) {
    if (a == keep || !key.component(a).annotated()) continue;
    out.mutable_component(a) =
        KeyComponent{schema.attribute(a).all_level(), 0, 0};
  }
  return out;
}

/// Product over attributes of the value count at the finest level any
/// measure groups by: the domain of the local algorithm's finest-
/// granularity groups (SortScanEvaluator's sort levels).
double FinestRegionDomain(const Workflow& wf) {
  const Schema& schema = *wf.schema();
  double domain = 1;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    LevelId finest = schema.attribute(a).all_level();
    for (const Measure& m : wf.measures()) {
      finest = std::min(finest, m.granularity.level(a));
    }
    domain *= static_cast<double>(schema.attribute(a).LevelValueCount(finest));
  }
  return domain;
}

ExecutionPlan MakePlan(const Schema& schema, const OptimizerOptions& options,
                       DistributionKey key, int64_t cf,
                       double finest_regions) {
  ExecutionPlan plan;
  plan.key = std::move(key);
  plan.clustering_factor = cf;
  plan.early_aggregation = options.early_aggregation;
  plan.combined_sort = options.combined_sort;
  const int64_t n_g = plan.key.NumBaseBlocks(schema);
  const int64_t d = plan.AnnotationWidth();
  plan.predicted_max_load =
      OverlappingMaxLoad(options.num_records, n_g, d, options.num_reducers,
                         cf);
  // Per-block priors (informational: local evaluation picks its
  // evaluator from the block itself and does not read them): each of the
  // n_g / cf blocks receives N (d + cf) / n_g records drawn from the
  // finest-region domain's slice owned by the block.
  const double blocks =
      std::max(1.0, static_cast<double>(n_g) / static_cast<double>(cf));
  plan.predicted_block_records = static_cast<double>(options.num_records) *
                                 static_cast<double>(d + cf) /
                                 std::max(1.0, static_cast<double>(n_g));
  plan.predicted_block_groups = ExpectedDistinctGroups(
      plan.predicted_block_records, std::max(1.0, finest_regions / blocks));
  return plan;
}

}  // namespace

Result<std::vector<ExecutionPlan>> CandidatePlans(
    const Workflow& wf, const OptimizerOptions& options) {
  if (options.num_reducers < 1) {
    return Status::InvalidArgument("need at least one reducer");
  }
  if (options.num_records < 1) {
    return Status::InvalidArgument(
        "cost model needs the input size (num_records)");
  }
  // The enumeration below costs NumBaseBlocks / cost-model calls per
  // candidate; for wide keys that is long enough that a caller tearing
  // down a run (deadline, user abort) wants the search to stop too.
  auto poll_cancel = [&options]() -> Status {
    return options.cancel != nullptr && options.cancel->cancelled()
               ? options.cancel->status()
               : Status::OK();
  };
  CASM_RETURN_IF_ERROR(poll_cancel());
  const Schema& schema = *wf.schema();
  const DistributionKey minimal = DeriveDistributionKeys(wf).query_key;
  CASM_CHECK(IsFeasible(wf, minimal))
      << "derived minimal key is infeasible: " << minimal.ToString(schema);

  std::vector<ExecutionPlan> plans;
  const std::vector<int> annotated = minimal.AnnotatedAttributes();
  const double finest_regions = FinestRegionDomain(wf);

  if (annotated.empty()) {
    // Theorem 2 territory: the minimal key (the LCA of the measure
    // granularities) is optimal under uniform data; no clustering applies.
    plans.push_back(MakePlan(schema, options, minimal, 1, finest_regions));
    return plans;
  }

  // One annotated attribute at a time, others rolled up to ALL (§IV-B),
  // with diversified clustering factors for run-time selection (§V). The
  // min-blocks heuristic counts *estimated non-empty* blocks: under skewed
  // data the occupied fraction of the grid is what balances reducers.
  const double occupancy =
      std::clamp(options.estimated_block_occupancy, 1e-6, 1.0);
  for (int keep : annotated) {
    CASM_RETURN_IF_ERROR(poll_cancel());
    DistributionKey key = RollUpAnnotated(schema, minimal, keep);
    const int64_t n_g = key.NumBaseBlocks(schema);
    const int64_t d = key.component(keep).width();
    int64_t cf_cap = std::max<int64_t>(1, n_g);
    if (options.min_blocks_per_reducer > 0) {
      cf_cap = std::max<int64_t>(
          1, static_cast<int64_t>(
                 occupancy * static_cast<double>(n_g) /
                 static_cast<double>(options.min_blocks_per_reducer *
                                     options.num_reducers)));
    }
    const int64_t cf_opt = std::min(
        cf_cap, OptimalClusteringFactor(options.num_records, n_g, d,
                                        options.num_reducers, 0));
    std::vector<int64_t> factors = {cf_opt, std::max<int64_t>(1, cf_opt / 4),
                                    std::min(cf_cap, cf_opt * 4), int64_t{1}};
    std::sort(factors.begin(), factors.end());
    factors.erase(std::unique(factors.begin(), factors.end()), factors.end());
    for (int64_t cf : factors) {
      plans.push_back(MakePlan(schema, options, key, cf, finest_regions));
    }
  }

  // Fallback: every annotated attribute rolled up (non-overlapping).
  DistributionKey rolled = RollUpAnnotated(schema, minimal, /*keep=*/-1);
  plans.push_back(MakePlan(schema, options, rolled, 1, finest_regions));

  for (const ExecutionPlan& plan : plans) {
    CASM_RETURN_IF_ERROR(poll_cancel());
    Status feasible = CheckFeasible(wf, plan.key);
    CASM_CHECK(feasible.ok()) << "optimizer produced an infeasible plan "
                              << plan.ToString(schema) << ": "
                              << feasible.ToString();
  }
  std::stable_sort(plans.begin(), plans.end(),
                   [](const ExecutionPlan& a, const ExecutionPlan& b) {
                     return a.predicted_max_load < b.predicted_max_load;
                   });
  return plans;
}

Result<ExecutionPlan> OptimizePlan(const Workflow& wf,
                                   const OptimizerOptions& options) {
  CASM_ASSIGN_OR_RETURN(std::vector<ExecutionPlan> plans,
                        CandidatePlans(wf, options));
  return plans.front();
}

Result<std::string> ExplainPlans(const Workflow& wf,
                                 const OptimizerOptions& options) {
  const Schema& schema = *wf.schema();
  CASM_ASSIGN_OR_RETURN(std::vector<ExecutionPlan> plans,
                        CandidatePlans(wf, options));
  const DistributionKey minimal = DeriveDistributionKeys(wf).query_key;
  std::string out;
  out += "minimal feasible key: " + minimal.ToString(schema) + "\n";
  out += "reducers: " + std::to_string(options.num_reducers) +
         ", records: " + std::to_string(options.num_records);
  if (options.min_blocks_per_reducer > 0) {
    out += ", min blocks/reducer: " +
           std::to_string(options.min_blocks_per_reducer) +
           " (occupancy estimate " +
           std::to_string(options.estimated_block_occupancy) + ")";
  }
  out += "\ncandidates (best first):\n";
  for (size_t i = 0; i < plans.size(); ++i) {
    out += (i == 0 ? "  * " : "    ") + plans[i].ToString(schema) +
           "  blocks=" + std::to_string(plans[i].NumBlocks(schema)) + "\n";
  }
  return out;
}

}  // namespace casm
