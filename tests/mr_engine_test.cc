// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the in-process MapReduce engine: grouping semantics, secondary
// sort, phase flags, metrics, and the partition hash.

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mr/cluster_model.h"
#include "mr/engine.h"

namespace casm {
namespace {

TEST(EngineTest, WordCountStyleAggregation) {
  // Input row i emits key {i % 7}, value {1}; reduce sums per key.
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 3;
  spec.num_reducers = 4;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 7;
      int64_t value = 1;
      emitter->Emit(&key, &value);
    }
  };
  std::mutex mu;
  std::map<int64_t, int64_t> sums;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    int64_t total = 0;
    for (int64_t i = 0; i < group.size(); ++i) total += group.value(i)[0];
    std::unique_lock<std::mutex> lock(mu);
    sums[group.key()[0]] = total;
  };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 700);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(sums.size(), 7u);
  for (const auto& [key, total] : sums) EXPECT_EQ(total, 100) << key;
  EXPECT_EQ(metrics->input_rows, 700);
  EXPECT_EQ(metrics->emitted_pairs, 700);
  EXPECT_EQ(metrics->TotalGroups(), 7);
  EXPECT_DOUBLE_EQ(metrics->ReplicationFactor(), 1.0);
}

TEST(EngineTest, GroupsArriveSortedByKeyWithinReducer) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 2;
  spec.num_reducers = 1;
  spec.key_width = 2;
  spec.value_width = 1;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key[2] = {i % 3, 10 - (i % 5)};
      int64_t value = i;
      emitter->Emit(key, &value);
    }
  };
  std::vector<std::vector<int64_t>> seen_keys;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    seen_keys.push_back({group.key()[0], group.key()[1]});
  };
  ASSERT_TRUE(engine.Run(spec, 100).ok());
  ASSERT_FALSE(seen_keys.empty());
  for (size_t i = 1; i < seen_keys.size(); ++i) {
    EXPECT_LT(seen_keys[i - 1], seen_keys[i]);
  }
}

TEST(EngineTest, SecondarySortOrdersValuesWithinGroup) {
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 4;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 2;
      int64_t value = 997 - i;  // scrambled
      emitter->Emit(&key, &value);
    }
  };
  spec.value_less = [](const int64_t* a, const int64_t* b) {
    return a[0] < b[0];
  };
  std::mutex mu;
  bool sorted = true;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    for (int64_t i = 1; i < group.size(); ++i) {
      if (group.value(i - 1)[0] > group.value(i)[0]) {
        std::unique_lock<std::mutex> lock(mu);
        sorted = false;
      }
    }
  };
  ASSERT_TRUE(engine.Run(spec, 500).ok());
  EXPECT_TRUE(sorted);
}

TEST(EngineTest, SecondarySortHoldsWhenSpilledRunsAreMerged) {
  // With map-side spilling and no reducer sort cap, spilled runs are
  // written in emission order and the reducer re-sorts every gathered
  // pair by key, then by value within each key. A scrambled secondary
  // order would expose a sort that skipped the value order for pairs
  // replayed from spill runs.
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 4;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.emitter_spill_threshold_bytes = 256;  // many small runs per mapper
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 5;
      int64_t value = 997 - i;  // scrambled
      emitter->Emit(&key, &value);
    }
  };
  spec.value_less = [](const int64_t* a, const int64_t* b) {
    return a[0] < b[0];
  };
  std::mutex mu;
  bool sorted = true;
  int64_t total_values = 0;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    std::unique_lock<std::mutex> lock(mu);
    total_values += group.size();
    for (int64_t i = 1; i < group.size(); ++i) {
      if (group.value(i - 1)[0] > group.value(i)[0]) sorted = false;
    }
  };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 500);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->emitter_spilled_runs, 0);  // spill runs replayed
  EXPECT_EQ(total_values, 500);
  EXPECT_TRUE(sorted);
}

TEST(EngineTest, MapOnlySkipsReduce) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 2;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.map_only = true;
  std::atomic<int64_t> emitted{0};
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i;
      int64_t value = i;
      emitter->Emit(&key, &value);
      ++emitted;
    }
  };
  spec.reduce_fn = [](int, const GroupView&) { FAIL() << "reduce ran"; };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 64);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(emitted.load(), 64);
  EXPECT_EQ(metrics->emitted_pairs, 64);
  EXPECT_EQ(metrics->TotalGroups(), 0);
}

TEST(EngineTest, SkipReduceStillCountsGroups) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 1;
  spec.num_reducers = 3;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.skip_reduce = true;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 11;
      emitter->Emit(&key, &key);
    }
  };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 110);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->TotalGroups(), 11);
}

TEST(EngineTest, PerReducerWorkloadsSumToEmitted) {
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 3;
  spec.num_reducers = 5;
  spec.key_width = 1;
  spec.value_width = 2;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 50;
      int64_t value[2] = {i, -i};
      emitter->Emit(&key, value);
    }
  };
  spec.reduce_fn = [](int, const GroupView&) {};
  Result<MapReduceMetrics> metrics = engine.Run(spec, 1000);
  ASSERT_TRUE(metrics.ok());
  int64_t total = 0;
  for (int64_t p : metrics->reducer_pairs) total += p;
  EXPECT_EQ(total, metrics->emitted_pairs);
  EXPECT_GE(metrics->MaxReducerPairs(), total / 5);
}

TEST(EngineTest, ValidatesSpec) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  EXPECT_FALSE(engine.Run(spec, 0).ok());  // no map_fn
  spec.map_fn = [](int64_t, int64_t, Emitter*) {};
  spec.num_reducers = 0;
  EXPECT_FALSE(engine.Run(spec, 0).ok());
  spec.num_reducers = 1;
  EXPECT_FALSE(engine.Run(spec, 0).ok());  // no reduce_fn
  spec.map_only = true;
  EXPECT_TRUE(engine.Run(spec, 0).ok());
}

TEST(EngineTest, EmptyInputProducesEmptyMetrics) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.map_fn = [](int64_t, int64_t, Emitter*) { FAIL(); };
  spec.reduce_fn = [](int, const GroupView&) { FAIL(); };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 0);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->emitted_pairs, 0);
}

TEST(EngineTest, GroupViewCopyValuesStripsKeys) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 1;
  spec.num_reducers = 1;
  spec.key_width = 1;
  spec.value_width = 2;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = 7;
      int64_t value[2] = {i, i * 10};
      emitter->Emit(&key, value);
    }
  };
  std::vector<int64_t> copied;
  spec.reduce_fn = [&](int, const GroupView& group) {
    copied = group.CopyValues();
  };
  ASSERT_TRUE(engine.Run(spec, 3).ok());
  ASSERT_EQ(copied.size(), 6u);
  std::set<int64_t> firsts = {copied[0], copied[2], copied[4]};
  EXPECT_EQ(firsts, (std::set<int64_t>{0, 1, 2}));
}

TEST(PartitionHashTest, PowerOfTwoReducerCountsStayBalanced) {
  // Regression: the pre-fmix64 finalizer (a lone `h ^= h >> 29` per word)
  // left the low bits weakly dispersed, so `hash % m` skewed badly for
  // power-of-two m on sequential keys. Assert the real dispatch is within
  // 2x of the mean, via the engine's own per-reducer workload metrics.
  for (int reducers : {4, 8, 16}) {
    MapReduceEngine engine(2);
    MapReduceSpec spec;
    spec.num_mappers = 2;
    spec.num_reducers = reducers;
    spec.key_width = 1;
    spec.value_width = 1;
    spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
      for (int64_t i = begin; i < end; ++i) emitter->Emit(&i, &i);
    };
    spec.skip_reduce = true;
    Result<MapReduceMetrics> metrics = engine.Run(spec, 4096);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    const int64_t mean = metrics->emitted_pairs / reducers;
    EXPECT_LE(metrics->MaxReducerPairs(), 2 * mean) << "m=" << reducers;
    // Every reducer must receive work at all (no dead buckets).
    for (int64_t pairs : metrics->reducer_pairs) {
      EXPECT_GT(pairs, 0) << "m=" << reducers;
    }
  }
}

TEST(PartitionHashTest, SpreadsKeys) {
  std::map<uint64_t, int> buckets;
  for (int64_t i = 0; i < 1000; ++i) {
    int64_t key[2] = {i, i * 31};
    ++buckets[PartitionHash(key, 2) % 10];
  }
  ASSERT_EQ(buckets.size(), 10u);
  for (const auto& [bucket, count] : buckets) {
    EXPECT_GT(count, 50) << bucket;  // loose balance check
    EXPECT_LT(count, 200) << bucket;
  }
}

TEST(ClusterModelTest, HeavierReducerMeansLongerResponse) {
  MapReduceMetrics balanced;
  balanced.input_rows = 1000000;
  balanced.reducer_pairs = {250000, 250000, 250000, 250000};
  MapReduceMetrics skewed;
  skewed.input_rows = 1000000;
  skewed.reducer_pairs = {700000, 100000, 100000, 100000};

  ClusterCostParams params = ClusterCostParams::Default();
  double t_balanced = ModeledResponseSeconds(balanced, 50, params);
  double t_skewed = ModeledResponseSeconds(skewed, 50, params);
  EXPECT_GT(t_skewed, t_balanced);
}

TEST(ClusterModelTest, MoreMapSlotsShortenTheMapPhase) {
  MapReduceMetrics metrics;
  metrics.input_rows = 10000000;
  metrics.reducer_pairs = {1000};
  ClusterCostParams params = ClusterCostParams::Default();
  EXPECT_GT(ModeledResponseSeconds(metrics, 10, params),
            ModeledResponseSeconds(metrics, 100, params));
}

TEST(MetricsTest, AccumulateAddsUp) {
  MapReduceMetrics a, b;
  a.input_rows = 10;
  a.emitted_pairs = 12;
  a.reducer_pairs = {5, 7};
  a.reducer_groups = {1, 2};
  b.input_rows = 20;
  b.emitted_pairs = 20;
  b.reducer_pairs = {10, 10};
  b.reducer_groups = {3, 4};
  a.Accumulate(b);
  EXPECT_EQ(a.input_rows, 30);
  EXPECT_EQ(a.reducer_pairs[0], 15);
  EXPECT_EQ(a.reducer_groups[1], 6);
  EXPECT_EQ(a.MaxReducerPairs(), 17);
}

TEST(MetricsTest, AccumulateMergesAttemptDigestsNotMaxOfMedians) {
  // Job a: map attempts [1, 1, 1]; job b: [5, 5, 5]. The sequence's p50
  // is the median over all six attempts (upper median = 5), computed
  // from the merged digest — the old max-over-jobs semantics happened to
  // agree here, but the quantile must come from the union, which shows
  // on the asymmetric case below.
  MapReduceMetrics a, b;
  for (int i = 0; i < 3; ++i) a.map_attempt_digest.Add(1.0);
  for (int i = 0; i < 3; ++i) b.map_attempt_digest.Add(5.0);
  a.map_attempt_p50_seconds = 1.0;
  a.map_attempt_max_seconds = 1.0;
  b.map_attempt_p50_seconds = 5.0;
  b.map_attempt_max_seconds = 5.0;
  a.Accumulate(b);
  EXPECT_EQ(a.map_attempt_digest.count(), 6);
  EXPECT_DOUBLE_EQ(a.map_attempt_p50_seconds, 5.0);  // sorted[3] of 6
  EXPECT_DOUBLE_EQ(a.map_attempt_max_seconds, 5.0);

  // Asymmetric counts: one 9-attempt job at 1s and one 1-attempt job at
  // 100s. Max-of-medians would say 100; the merged-digest median is 1.
  MapReduceMetrics c, d;
  for (int i = 0; i < 9; ++i) c.reduce_attempt_digest.Add(1.0);
  d.reduce_attempt_digest.Add(100.0);
  c.reduce_attempt_p50_seconds = 1.0;
  d.reduce_attempt_p50_seconds = 100.0;
  c.Accumulate(d);
  EXPECT_DOUBLE_EQ(c.reduce_attempt_p50_seconds, 1.0);
  EXPECT_DOUBLE_EQ(c.reduce_attempt_max_seconds, 100.0);

  // Each phase's attempt outcomes add up across the sequence.
  MapReduceMetrics e, f;
  e.map_attempts.ok = 3;
  e.map_attempts.retried = 1;
  f.map_attempts.ok = 2;
  f.map_attempts.cancelled = 1;
  f.reduce_attempts.speculative_wins = 1;
  f.reduce_attempts.failed = 2;
  e.Accumulate(f);
  EXPECT_EQ(e.map_attempts.ok, 5);
  EXPECT_EQ(e.map_attempts.retried, 1);
  EXPECT_EQ(e.map_attempts.cancelled, 1);
  EXPECT_EQ(e.reduce_attempts.speculative_wins, 1);
  EXPECT_EQ(e.reduce_attempts.failed, 2);
  EXPECT_EQ(e.reduce_attempts.ok, 0);
}


TEST(EngineTest, SplitFnControlsMapperRanges) {
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 3;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  // Mapper m processes rows congruent to m mod 3, as two ranges each.
  spec.split_fn = [](int mapper) {
    std::vector<std::pair<int64_t, int64_t>> ranges;
    ranges.emplace_back(mapper * 10, mapper * 10 + 10);
    ranges.emplace_back(100 + mapper * 10, 100 + mapper * 10 + 10);
    return ranges;
  };
  std::mutex mu;
  std::set<int64_t> seen;
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 5;
      emitter->Emit(&key, &i);
      std::unique_lock<std::mutex> lock(mu);
      EXPECT_TRUE(seen.insert(i).second) << "row " << i << " mapped twice";
    }
  };
  spec.reduce_fn = [](int, const GroupView&) {};
  Result<MapReduceMetrics> metrics = engine.Run(spec, 130);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->emitted_pairs, 60);  // 3 mappers x 2 ranges x 10 rows
  EXPECT_EQ(seen.size(), 60u);
}

}  // namespace
}  // namespace casm
