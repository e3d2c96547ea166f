// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the unified fault-injection registry (common/fault.h):
// deterministic seeded decisions, per-site spec matching across the six
// fault domains, Nth-op counters, outage windows over the io-op clock,
// parent chaining with hooks, and the CASM_FAULT_PLAN grammar.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"

namespace casm {
namespace {

TEST(FaultPlanTest, EmptyPlanIsUnarmedAndInjectsNothing) {
  FaultPlan plan(42);
  EXPECT_FALSE(plan.armed());
  EXPECT_TRUE(plan.OnTaskAttempt("map", 0, 1).ok());
  EXPECT_EQ(plan.TaskSlowdownSeconds("map", 0, 1), 0);
  EXPECT_EQ(plan.RecordThrottleSeconds("reduce", 0, 1), 0);
  EXPECT_TRUE(plan.OnIo("write", 0).ok());
  EXPECT_FALSE(plan.NodeDown(0));
  EXPECT_FALSE(plan.ShouldCorruptBlock("f", 0, 0));
  EXPECT_EQ(plan.faults_injected(), 0);
}

TEST(FaultPlanTest, TaskCrashMatchesSiteExactly) {
  FaultPlan plan(1);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.task = 2;
  crash.attempt = 1;
  plan.Add(crash);
  EXPECT_TRUE(plan.armed());
  EXPECT_TRUE(plan.OnTaskAttempt("map", 1, 1).ok());
  EXPECT_TRUE(plan.OnTaskAttempt("reduce", 2, 1).ok());
  EXPECT_TRUE(plan.OnTaskAttempt("map", 2, 2).ok());
  const Status st = plan.OnTaskAttempt("map", 2, 1);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(plan.faults_injected(), 1);
}

TEST(FaultPlanTest, WildcardTaskAndAttemptMatchEverything) {
  FaultPlan plan(1);
  FaultPlan::TaskCrash crash;
  crash.phase = "reduce";  // task = attempt = -1: any
  plan.Add(crash);
  EXPECT_FALSE(plan.OnTaskAttempt("reduce", 0, 1).ok());
  EXPECT_FALSE(plan.OnTaskAttempt("reduce", 7, 3).ok());
  EXPECT_TRUE(plan.OnTaskAttempt("map", 0, 1).ok());
}

TEST(FaultPlanTest, ProbabilisticCrashIsDeterministicInSeed) {
  const auto outcomes = [](uint64_t seed) {
    FaultPlan plan(seed);
    FaultPlan::TaskCrash crash;
    crash.phase = "map";
    crash.probability = 0.5;
    plan.Add(crash);
    std::vector<bool> failed;
    for (int t = 0; t < 64; ++t) {
      failed.push_back(!plan.OnTaskAttempt("map", t, 1).ok());
    }
    return failed;
  };
  EXPECT_EQ(outcomes(7), outcomes(7));  // same seed, same faults
  EXPECT_NE(outcomes(7), outcomes(8));  // decisions move with the seed
  // Roughly half at p=0.5.
  int hits = 0;
  for (bool b : outcomes(7)) hits += b ? 1 : 0;
  EXPECT_GT(hits, 16);
  EXPECT_LT(hits, 48);
}

TEST(FaultPlanTest, SlowdownAndThrottleSumAcrossMatchingSpecs) {
  FaultPlan plan(1);
  FaultPlan::TaskSlowdown slow;
  slow.phase = "map";
  slow.task = 0;
  slow.seconds = 0.25;
  plan.Add(slow);
  slow.seconds = 0.5;
  plan.Add(slow);
  EXPECT_DOUBLE_EQ(plan.TaskSlowdownSeconds("map", 0, 1), 0.75);
  EXPECT_DOUBLE_EQ(plan.TaskSlowdownSeconds("map", 1, 1), 0);

  FaultPlan::RecordThrottle throttle;
  throttle.phase = "reduce";
  throttle.seconds_per_record = 1e-4;
  plan.Add(throttle);
  EXPECT_DOUBLE_EQ(plan.RecordThrottleSeconds("reduce", 3, 2), 1e-4);
  EXPECT_DOUBLE_EQ(plan.RecordThrottleSeconds("map", 3, 2), 0);
}

TEST(FaultPlanTest, IoErrorEveryNthOpFiresOnSchedule) {
  FaultPlan plan(1);
  FaultPlan::IoError spec;
  spec.op = "write";
  spec.every_nth = 3;
  plan.Add(spec);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!plan.OnIo("write", 0).ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);  // ops 3, 6, 9
  // Reads are untouched by a write-op spec.
  EXPECT_TRUE(plan.OnIo("read", 0).ok());
}

TEST(FaultPlanTest, IoErrorCanTargetOneNode) {
  FaultPlan plan(1);
  FaultPlan::IoError spec;
  spec.node = 2;
  spec.probability = 1.0;
  plan.Add(spec);
  EXPECT_TRUE(plan.OnIo("write", 1).ok());
  EXPECT_FALSE(plan.OnIo("write", 2).ok());
  EXPECT_FALSE(plan.OnIo("read", 2).ok());
}

TEST(FaultPlanTest, NodeOutageWindowFollowsIoOpClock) {
  FaultPlan plan(1);
  FaultPlan::NodeOutage outage;
  outage.node = 1;
  outage.from_io_op = 2;
  outage.to_io_op = 4;
  plan.Add(outage);
  // NodeDown peeks at the clock; OnIo advances it.
  EXPECT_FALSE(plan.NodeDown(1));                // clock 0
  EXPECT_TRUE(plan.OnIo("write", 0).ok());       // clock 1
  EXPECT_FALSE(plan.NodeDown(1));
  EXPECT_TRUE(plan.OnIo("write", 0).ok());       // clock 2: window opens
  EXPECT_TRUE(plan.NodeDown(1));
  EXPECT_FALSE(plan.NodeDown(0));                // other nodes unaffected
  EXPECT_FALSE(plan.OnIo("write", 1).ok());      // op against a down node
  EXPECT_TRUE(plan.OnIo("write", 0).ok());       // clock 4: window closed
  EXPECT_FALSE(plan.NodeDown(1));
}

TEST(FaultPlanTest, BlockCorruptionIsDeterministicPerReplica) {
  FaultPlan plan(99);
  FaultPlan::BlockCorruption spec;
  spec.probability = 0.5;
  plan.Add(spec);
  const bool first = plan.ShouldCorruptBlock("file-a", 0, 0);
  EXPECT_EQ(plan.ShouldCorruptBlock("file-a", 0, 0), first);
  // Across many replicas roughly half rot.
  int hits = 0;
  for (int b = 0; b < 64; ++b) {
    hits += plan.ShouldCorruptBlock("file-a", b, 1) ? 1 : 0;
  }
  EXPECT_GT(hits, 16);
  EXPECT_LT(hits, 48);
}

TEST(FaultPlanTest, ParentChainingComposesPlans) {
  FaultPlan parent(1);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.task = 0;
  crash.attempt = 1;
  parent.Add(crash);
  FaultPlan::TaskSlowdown slow;
  slow.phase = "map";
  slow.task = 1;
  slow.seconds = 0.125;
  parent.Add(slow);

  FaultPlan child(2);
  child.set_parent(&parent);
  EXPECT_TRUE(child.armed());  // armed through the parent
  EXPECT_FALSE(child.OnTaskAttempt("map", 0, 1).ok());
  EXPECT_DOUBLE_EQ(child.TaskSlowdownSeconds("map", 1, 1), 0.125);

  // Hooks on the child run before the parent.
  int hook_calls = 0;
  child.AddCrashHook([&hook_calls](const char*, int, int) {
    ++hook_calls;
    return Status::OK();
  });
  EXPECT_FALSE(child.OnTaskAttempt("map", 0, 1).ok());
  EXPECT_EQ(hook_calls, 1);
}

TEST(FaultPlanTest, ParsesComposedPlanText) {
  Result<FaultPlan> parsed = FaultPlan::Parse(
      "seed=7; node_down=1:0:100; io_error=0.5:write; io_error_nth=3:read:2; "
      "block_corrupt=0.25; task_crash=map:0:1; slow_task=reduce:*:*:0.5; "
      "throttle=map:2:*:0.001");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  FaultPlan plan = std::move(parsed).value();
  EXPECT_TRUE(plan.armed());
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_TRUE(plan.NodeDown(1));
  EXPECT_FALSE(plan.NodeDown(0));
  EXPECT_FALSE(plan.OnTaskAttempt("map", 0, 1).ok());
  EXPECT_DOUBLE_EQ(plan.TaskSlowdownSeconds("reduce", 9, 2), 0.5);
  EXPECT_DOUBLE_EQ(plan.RecordThrottleSeconds("map", 2, 1), 0.001);
}

TEST(FaultPlanTest, ParseRejectsMalformedText) {
  EXPECT_FALSE(FaultPlan::Parse("bogus=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("io_error=notanumber").ok());
  EXPECT_FALSE(FaultPlan::Parse("task_crash=map").ok());  // missing fields
  EXPECT_FALSE(FaultPlan::Parse("node_down=").ok());
  // Out-of-range values are rejected rather than narrowed, summed away or
  // applied as written.
  EXPECT_FALSE(FaultPlan::Parse("task_crash=map:4294967296:1").ok());
  EXPECT_FALSE(FaultPlan::Parse("task_crash=map:0:-4294967296").ok());
  EXPECT_FALSE(FaultPlan::Parse("io_error=0.5:read:4294967296").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("slow_task=map:0:1:2; slow_task=map:0:1:-2").ok());
  EXPECT_FALSE(FaultPlan::Parse("throttle=map:0:1:-0.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("task_crash=map:0:1:-0.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("task_crash=map:0:1:nan").ok());
  EXPECT_FALSE(FaultPlan::Parse("io_error=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("block_corrupt=-1").ok());
  EXPECT_FALSE(FaultPlan::Parse("node_down=0:10:3").ok());
  EXPECT_FALSE(FaultPlan::Parse("node_down=0:3:3").ok());
  // The boundaries themselves stay valid.
  EXPECT_TRUE(FaultPlan::Parse("task_crash=map:2147483647:1:1; io_error=0; "
                               "slow_task=map:0:1:0; node_down=0:3:4")
                  .ok());
}

TEST(FaultPlanTest, ParseOfEmptyTextIsUnarmed) {
  Result<FaultPlan> parsed = FaultPlan::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().armed());
}

}  // namespace
}  // namespace casm
