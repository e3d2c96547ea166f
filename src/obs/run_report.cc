// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/run_report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace casm {
namespace {

std::string Secs(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4fs", v);
  return buf;
}

PhaseAttemptHistogram* PhaseFor(RunReport* report, const char* category) {
  for (PhaseAttemptHistogram& h : report->phases) {
    if (h.phase == category) return &h;
  }
  report->phases.emplace_back();
  report->phases.back().phase = category;
  return &report->phases.back();
}

}  // namespace

const PhaseAttemptHistogram* RunReport::FindPhase(
    const std::string& phase) const {
  for (const PhaseAttemptHistogram& h : phases) {
    if (h.phase == phase) return &h;
  }
  return nullptr;
}

std::string RunReport::Summary() const {
  if (phases.empty() && admission_waits == 0 && spill_events == 0 &&
      pool_queue_spans == 0 && local_agg_engine.empty() && dfs_reads == 0 &&
      dfs_writes == 0 && dfs_scrubs == 0 && dfs_io_retries == 0 &&
      dfs_failovers == 0 && dfs_repairs == 0 && ckpt_degraded_events == 0 &&
      plan_cache_hits == 0 && plan_cache_misses == 0 &&
      plan_cache_evictions == 0 && trace_dropped_events == 0) {
    return std::string();
  }
  std::string out = "run report: " +
                    Secs(trace_end_seconds - trace_begin_seconds) +
                    " traced";
  for (const PhaseAttemptHistogram& h : phases) {
    out += "\n  " + h.phase + ": " + std::to_string(h.attempts) +
           " attempt(s) [" + std::to_string(h.ok) + " ok, " +
           std::to_string(h.retried) + " retried, " +
           std::to_string(h.failed) + " failed, " +
           std::to_string(h.speculative_wins) + " speculative-win, " +
           std::to_string(h.cancelled) + " cancelled]";
    if (h.durations.count() > 0) {
      out += " duration p50=" + Secs(h.durations.Quantile(0.5)) +
             " p90=" + Secs(h.durations.Quantile(0.9)) +
             " p99=" + Secs(h.durations.Quantile(0.99)) +
             " max=" + Secs(h.durations.Max());
    }
  }
  if (admission_waits > 0 || spill_events > 0) {
    out += "\n  memory: " + std::to_string(admission_waits) +
           " admission wait(s) (" + Secs(admission_wait_seconds) +
           " waiting), " + std::to_string(spill_events) + " spill event(s)";
  }
  if (pool_queue_spans > 0) {
    out += "\n  pool: " + std::to_string(pool_queue_spans) +
           " queue-wait(s) (" + Secs(pool_queue_seconds) + " total)";
  }
  if (!local_agg_engine.empty()) {
    out += "\n  localagg: sortscan=" +
           std::to_string(localagg_blocks_sortscan) +
           " morsel=" + std::to_string(localagg_blocks_morsel) +
           " block(s) (dominant " + local_agg_engine + ")";
  }
  if (dfs_reads > 0 || dfs_writes > 0 || dfs_scrubs > 0 ||
      dfs_io_retries > 0 || dfs_failovers > 0 || dfs_repairs > 0 ||
      ckpt_degraded_events > 0) {
    out += "\n  storage: " + std::to_string(dfs_reads) + " read(s), " +
           std::to_string(dfs_writes) + " write(s), " +
           std::to_string(dfs_scrubs) + " scrub(s), " +
           std::to_string(dfs_io_retries) + " io-retry(s), " +
           std::to_string(dfs_failovers) + " failover(s), " +
           std::to_string(dfs_repairs) + " repair(s)";
    if (ckpt_degraded_events > 0) {
      out += ", " + std::to_string(ckpt_degraded_events) +
             " degraded-checkpoint event(s)";
    }
  }
  if (plan_cache_hits > 0 || plan_cache_misses > 0 ||
      plan_cache_evictions > 0) {
    out += "\n  plancache: " + std::to_string(plan_cache_hits) + " hit(s), " +
           std::to_string(plan_cache_misses) + " miss(es), " +
           std::to_string(plan_cache_evictions) + " eviction(s)";
  }
  if (trace_dropped_events > 0) {
    out += "\n  WARNING: trace truncated — " +
           std::to_string(trace_dropped_events) +
           " span(s) dropped at the per-thread cap; histograms and "
           "trace-derived fits are incomplete";
  }
  return out;
}

RunReport BuildRunReport(const std::vector<TraceEvent>& events) {
  RunReport report;
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (first) {
      report.trace_begin_seconds = ev.start_seconds;
      report.trace_end_seconds = ev.end_seconds();
      first = false;
    } else {
      report.trace_begin_seconds =
          std::min(report.trace_begin_seconds, ev.start_seconds);
      report.trace_end_seconds =
          std::max(report.trace_end_seconds, ev.end_seconds());
    }
    const bool is_attempt =
        ev.outcome != TraceOutcome::kNone &&
        (std::strcmp(ev.category, "map") == 0 ||
         std::strcmp(ev.category, "reduce") == 0);
    if (is_attempt) {
      PhaseAttemptHistogram* h = PhaseFor(&report, ev.category);
      ++h->attempts;
      switch (ev.outcome) {
        case TraceOutcome::kOk:
          ++h->ok;
          break;
        case TraceOutcome::kFailed:
          ++h->failed;
          break;
        case TraceOutcome::kRetried:
          ++h->retried;
          break;
        case TraceOutcome::kSpeculativeWin:
          ++h->speculative_wins;
          break;
        case TraceOutcome::kCancelled:
          ++h->cancelled;
          break;
        case TraceOutcome::kNone:
          break;
      }
      if (ev.outcome != TraceOutcome::kCancelled) {
        h->durations.Add(ev.duration_seconds);
      }
      continue;
    }
    if (std::strcmp(ev.category, "memory") == 0) {
      if (ev.name == "admission") {
        ++report.admission_waits;
        report.admission_wait_seconds += ev.duration_seconds;
      } else if (ev.instant) {
        ++report.spill_events;
      }
    } else if (std::strcmp(ev.category, "pool") == 0 && !ev.instant) {
      ++report.pool_queue_spans;
      report.pool_queue_seconds += ev.duration_seconds;
    } else if (std::strcmp(ev.category, "localagg") == 0 && !ev.instant) {
      if (ev.name == "sortscan") {
        ++report.localagg_blocks_sortscan;
      } else if (ev.name == "morsel") {
        ++report.localagg_blocks_morsel;
      }
    } else if (std::strcmp(ev.category, "dfs") == 0) {
      if (ev.name == "dfs-read") {
        ++report.dfs_reads;
      } else if (ev.name == "dfs-write") {
        ++report.dfs_writes;
      } else if (ev.name == "dfs-scrub") {
        ++report.dfs_scrubs;
      } else if (ev.name == "dfs-retry") {
        ++report.dfs_io_retries;
      } else if (ev.name == "dfs-failover") {
        ++report.dfs_failovers;
      } else if (ev.name == "dfs-repair") {
        ++report.dfs_repairs;
      }
    } else if (std::strcmp(ev.category, "plancache") == 0 && ev.instant) {
      if (ev.name == "hit") {
        ++report.plan_cache_hits;
      } else if (ev.name == "miss") {
        ++report.plan_cache_misses;
      } else if (ev.name == "evict") {
        ++report.plan_cache_evictions;
      }
    } else if (std::strcmp(ev.category, "ckpt") == 0 && ev.instant &&
               (ev.name == "ckpt-degraded" ||
                ev.name.rfind("ckpt-skipped", 0) == 0)) {
      ++report.ckpt_degraded_events;
    }
  }
  if (report.localagg_blocks_sortscan > 0 ||
      report.localagg_blocks_morsel > 0) {
    report.local_agg_engine =
        report.localagg_blocks_morsel > report.localagg_blocks_sortscan
            ? "morsel"
            : "sortscan";
  }
  return report;
}

}  // namespace casm
