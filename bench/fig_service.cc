// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Multi-query service benchmark: latency under concurrent offered load,
// with shared-scan batching on vs off.
//
// Part 1 (deterministic): k compatible paper queries are queued against a
// paused service and released at once, so the batching worker folds them
// into one shared scan. The run self-checks: every query's results must
// be BIT-IDENTICAL (tolerance 0.0) to a solo EvaluateParallel of its
// workflow under the very plan the service executed, and the number of
// scan passes must be strictly below the query count — sharing must
// actually share.
//
// Part 2 (offered load): a seeded Zipf query mix arrives as a Poisson
// process (bench/workload.h) at increasing rates; the service absorbs it
// with shared batching off, then on. Reported per level: p50/p99
// submit-to-done latency, scan passes, shared batches formed. The JSON
// feeds scripts/check_bench.py — latency fields are regression ceilings,
// the scan-pass speedup is a floor.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/workload.h"
#include "data/generator.h"
#include "svc/query_service.h"

namespace casm {
namespace {

using bench::JsonRow;
using bench::MakeWorkload;
using bench::WorkloadItem;
using bench::WorkloadOptions;

struct ServiceFixture {
  SchemaPtr schema;
  Table table;
  std::vector<Workflow> workflows;  // Q1..Q6, all on `schema`

  explicit ServiceFixture(int64_t rows)
      : schema(PaperSchema()),
        table(GenerateUniformTable(schema, rows, /*seed=*/7)) {
    for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
                         PaperQuery::kQ4, PaperQuery::kQ5, PaperQuery::kQ6}) {
      workflows.push_back(MakePaperQuery(q, schema));
    }
  }
};

QueryServiceOptions BaseOptions() {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.num_mappers = 4;
  options.num_reducers = 4;
  options.num_threads = 2;
  return options;
}

/// Re-runs `wf` solo under the exact plan the service executed and fails
/// loudly unless the results match bit-for-bit.
void SelfCheckOutcome(const Workflow& wf, const Table& table,
                      const QueryOutcome& outcome,
                      const QueryServiceOptions& service_options) {
  ParallelEvalOptions eval;
  eval.num_mappers = service_options.num_mappers;
  eval.num_reducers = service_options.num_reducers;
  eval.num_threads = service_options.num_threads;
  Result<ParallelEvalResult> solo =
      EvaluateParallel(wf, table, outcome.plan, eval);
  CASM_CHECK(solo.ok()) << solo.status().ToString();
  const Status same =
      CompareResultSets(solo.value().results, outcome.results,
                        /*tolerance=*/0.0);
  CASM_CHECK(same.ok()) << "shared result diverged from solo: "
                        << same.ToString();
}

/// Part 1: burst of k compatible queries -> one shared scan, bit-identical
/// fan-out.
JsonRow RunSharedBurst(const ServiceFixture& fixture, int k) {
  QueryServiceOptions options = BaseOptions();
  options.num_workers = 1;  // deterministic batch formation
  options.start_paused = true;
  options.shared_batching = true;
  options.max_batch_queries = k;
  options.batch_window_seconds = 0.05;
  QueryService service(options);

  std::vector<QueryService::QueryId> ids;
  for (int i = 0; i < k; ++i) {
    QueryRequest request;
    request.workflow =
        &fixture.workflows[static_cast<size_t>(i) % fixture.workflows.size()];
    request.table = &fixture.table;
    Result<QueryService::QueryId> id = service.Submit(request);
    CASM_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  service.Start();

  double max_latency = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<QueryOutcome> outcome = service.Wait(ids[i]);
    CASM_CHECK(outcome.ok()) << outcome.status().ToString();
    CASM_CHECK(outcome.value().state == QueryState::kDone)
        << QueryStateName(outcome.value().state) << ": "
        << outcome.value().status.ToString();
    SelfCheckOutcome(fixture.workflows[i % fixture.workflows.size()],
                     fixture.table, outcome.value(), options);
    max_latency = std::max(
        max_latency,
        outcome.value().queue_seconds + outcome.value().run_seconds);
  }
  const QueryServiceStats stats = service.stats();
  CASM_CHECK(stats.scan_passes < k)
      << "shared batching did not reduce scan passes: " << stats.scan_passes
      << " passes for " << k << " queries";
  std::printf(
      "shared burst k=%d: %lld scan pass(es), %lld shared batch(es), "
      "speedup %.2fx, results bit-identical to solo\n",
      k, static_cast<long long>(stats.scan_passes),
      static_cast<long long>(stats.shared_batches),
      static_cast<double>(k) / static_cast<double>(stats.scan_passes));

  JsonRow row;
  row.label = "shared_burst_k" + std::to_string(k);
  row.fields.emplace_back("queries", static_cast<double>(k));
  row.fields.emplace_back("scan_passes",
                          static_cast<double>(stats.scan_passes));
  row.fields.emplace_back("shared_batches",
                          static_cast<double>(stats.shared_batches));
  row.fields.emplace_back(
      "scan_pass_speedup_x",
      static_cast<double>(k) / static_cast<double>(stats.scan_passes));
  row.fields.emplace_back("max_latency_seconds", max_latency);
  return row;
}

/// Part 2: Poisson offered load at `arrivals_per_second`, shared on/off.
JsonRow RunOfferedLoad(const ServiceFixture& fixture, double load,
                       int num_queries, bool shared) {
  QueryServiceOptions options = BaseOptions();
  options.shared_batching = shared;
  options.batch_window_seconds = 0.01;
  QueryService service(options);

  WorkloadOptions wopt;
  wopt.seed = 0x5eed + static_cast<uint64_t>(load);
  wopt.num_queries = num_queries;
  wopt.zipf_s = 1.0;
  wopt.arrivals_per_second = load;
  wopt.high_priority_every = 4;
  const std::vector<WorkloadItem> items = MakeWorkload(wopt);

  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryService::QueryId> ids;
  for (const WorkloadItem& item : items) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(item.arrival_seconds)));
    QueryRequest request;
    request.workflow =
        &fixture.workflows[static_cast<size_t>(item.template_index)];
    request.table = &fixture.table;
    request.priority = item.priority;
    Result<QueryService::QueryId> id = service.Submit(request);
    CASM_CHECK(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (QueryService::QueryId id : ids) {
    Result<QueryOutcome> outcome = service.Wait(id);
    CASM_CHECK(outcome.ok()) << outcome.status().ToString();
    CASM_CHECK(outcome.value().state == QueryState::kDone)
        << QueryStateName(outcome.value().state) << ": "
        << outcome.value().status.ToString();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const QueryServiceStats stats = service.stats();
  const double p50 = stats.latency_seconds.Quantile(0.5);
  const double p99 = stats.latency_seconds.Quantile(0.99);
  std::printf(
      "load=%.0f/s shared=%s: %d queries in %.2fs, p50=%.3fs p99=%.3fs, "
      "%lld scan pass(es), %lld shared batch(es)\n",
      load, shared ? "on" : "off", num_queries, wall, p50, p99,
      static_cast<long long>(stats.scan_passes),
      static_cast<long long>(stats.shared_batches));

  JsonRow row;
  row.label = "load" + std::to_string(static_cast<int>(load)) + "_shared_" +
              (shared ? "on" : "off");
  row.fields.emplace_back("offered_load_per_sec", load);
  row.fields.emplace_back("queries", static_cast<double>(num_queries));
  row.fields.emplace_back("p50_latency_seconds", p50);
  row.fields.emplace_back("p99_latency_seconds", p99);
  row.fields.emplace_back("scan_passes",
                          static_cast<double>(stats.scan_passes));
  row.fields.emplace_back("shared_batches",
                          static_cast<double>(stats.shared_batches));
  row.fields.emplace_back("shared_queries",
                          static_cast<double>(stats.shared_queries));
  return row;
}

int Main() {
  bench::PrintHeader("fig_service",
                     "multi-query service: shared-scan batching and "
                     "latency under offered load");
  const int64_t rows = bench::ScaledRows(20000);
  ServiceFixture fixture(rows);
  std::printf("# table: %lld rows\n", static_cast<long long>(rows));

  std::vector<JsonRow> json;
  for (int k : {2, 4, 6}) {
    json.push_back(RunSharedBurst(fixture, k));
  }
  const int num_queries =
      std::max(8, static_cast<int>(12 * std::min(bench::Scale(), 4.0)));
  for (bool shared : {false, true}) {
    for (double load : {16.0, 48.0}) {
      json.push_back(RunOfferedLoad(fixture, load, num_queries, shared));
    }
  }
  bench::MaybeWriteJson("fig_service", json);
  return 0;
}

}  // namespace
}  // namespace casm

int main() { return casm::Main(); }
