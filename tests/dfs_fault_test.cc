// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the DFS storage fault domains (dfs/volume.h + common/fault.h):
// write-path failover to healthy nodes with manifests recording actual
// placement, bounded read retry, corrupt-replica detection counters with
// repair-on-read, Scrub() verification and re-replication, suspect-node
// health tracking, and age-based staging-file garbage collection.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "dfs/volume.h"
#include "scoped_test_dir.h"

namespace casm {
namespace {

namespace fs = std::filesystem;

DfsVolumeOptions SmallBlocks() {
  DfsVolumeOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  o.block_size_bytes = 64;  // multi-block files from small payloads
  o.io_retry_backoff_initial_ms = 0;  // fast tests: retry without sleeping
  return o;
}

std::string Payload(size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + (i * 31 + i / 64) % 26));
  }
  return s;
}

/// Paths of every on-disk replica of `name`'s blocks.
std::vector<std::string> BlockReplicaPaths(const DfsVolume& volume,
                                           const std::string& name) {
  std::vector<std::string> paths;
  for (int node = 0; node < volume.options().num_nodes; ++node) {
    const std::string dir = volume.root() + "/node" + std::to_string(node);
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(name + ".blk", 0) == 0) {
        paths.push_back(entry.path().string());
      }
    }
  }
  return paths;
}

/// Nodes holding block `block` of `name`, in manifest (= read-probe)
/// order, parsed from the committed manifest text.
std::vector<int> ManifestReplicas(const DfsVolume& volume,
                                  const std::string& name, int block) {
  std::ifstream in(volume.root() + "/" + name + ".manifest");
  std::string line;
  const std::string want = "block " + std::to_string(block) + " ";
  while (std::getline(in, line)) {
    if (line.rfind(want, 0) != 0) continue;
    std::istringstream fields(line);
    std::string word, size, crc;
    int index = 0;
    fields >> word >> index >> size >> crc;
    std::vector<int> nodes;
    int node = -1;
    while (fields >> node) nodes.push_back(node);
    return nodes;
  }
  return {};
}

std::string ReplicaPath(const DfsVolume& volume, const std::string& name,
                        int block, int node) {
  return volume.root() + "/node" + std::to_string(node) + "/" + name +
         ".blk" + std::to_string(block);
}

void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(offset);
  f.write(&c, 1);
}

TEST(DfsFaultTest, WriteFailoverPlacesReplicasOffDownNode) {
  const ScopedTestDir test_dir("failover");
  const std::string& dir = test_dir.path();
  FaultPlan down(1);
  FaultPlan::NodeOutage outage;
  outage.node = 1;  // node 1 down for the whole write
  down.Add(outage);

  DfsVolumeOptions options = SmallBlocks();
  options.fault_plan = &down;
  Result<DfsVolume> wv = DfsVolume::Open(dir, options);
  ASSERT_TRUE(wv.ok());
  const std::string payload = Payload(64 * 8);  // 8 blocks, 16 replica slots
  ASSERT_TRUE(wv.value().WriteFile("data", payload).ok());
  // Some preferred slot must have landed on node 1 and failed over.
  EXPECT_GT(wv.value().stats().write_failovers, 0);
  EXPECT_EQ(wv.value().stats().under_replicated_blocks, 0);

  // No replica file on the down node; the manifest records the actual
  // placement, so a clean reader reassembles bit-identical bytes.
  std::error_code ec;
  int node1_files = 0;
  for (const auto& entry :
       fs::directory_iterator(dir + "/node1", ec)) {
    (void)entry;
    ++node1_files;
  }
  EXPECT_EQ(node1_files, 0);

  Result<DfsVolume> rv = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(rv.ok());
  DfsVolume::ReadStats stats;
  Result<std::string> read = rv.value().ReadFile("data", &stats);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(stats.replica_fallbacks, 0);
}

TEST(DfsFaultTest, TransientReadErrorsAreRetriedWithBoundedBudget) {
  const ScopedTestDir test_dir("readretry");
  const std::string& dir = test_dir.path();
  {
    Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v.value().WriteFile("data", Payload(64 * 4)).ok());
  }
  // Every 3rd IO op on reads fails once; the bounded retry absorbs it.
  FaultPlan flaky(3);
  FaultPlan::IoError spec;
  spec.op = "read";
  spec.every_nth = 3;
  flaky.Add(spec);
  DfsVolumeOptions options = SmallBlocks();
  options.fault_plan = &flaky;
  Result<DfsVolume> v = DfsVolume::Open(dir, options);
  ASSERT_TRUE(v.ok());
  Result<std::string> read = v.value().ReadFile("data");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), Payload(64 * 4));
  EXPECT_GT(v.value().stats().io_retries, 0);
}

TEST(DfsFaultTest, CorruptReplicaIsCountedAndRepairedOnRead) {
  const ScopedTestDir test_dir("repair");
  const std::string& dir = test_dir.path();
  Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(v.ok());
  const std::string payload = Payload(64);  // one block, two replicas
  ASSERT_TRUE(v.value().WriteFile("data", payload).ok());
  // Corrupt the replica the reader probes first (manifest order), so the
  // read must detect the rot before falling back to the good copy.
  std::vector<int> nodes = ManifestReplicas(v.value(), "data", 0);
  ASSERT_EQ(nodes.size(), 2u);
  FlipByte(ReplicaPath(v.value(), "data", 0, nodes[0]), 10);

  DfsVolume::ReadStats stats;
  Result<std::string> read = v.value().ReadFile("data", &stats);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), payload);  // intact fallback replica wins
  EXPECT_EQ(stats.corrupt_replicas, 1);
  EXPECT_EQ(stats.repaired_replicas, 1);
  EXPECT_EQ(v.value().stats().corrupt_replicas, 1);
  EXPECT_EQ(v.value().stats().repaired_replicas, 1);

  // Repair-on-read rewrote the bad replica: the next read is clean even
  // if it probes the previously corrupt copy first.
  DfsVolume::ReadStats again;
  Result<std::string> second = v.value().ReadFile("data", &again);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), payload);
  EXPECT_EQ(again.corrupt_replicas, 0);
  EXPECT_EQ(v.value().stats().corrupt_replicas, 1);  // not double counted
}

TEST(DfsFaultTest, InjectedSilentRotOnAllReplicasFailsCleanly) {
  const ScopedTestDir test_dir("rotall");
  const std::string& dir = test_dir.path();
  FaultPlan rot(5);
  FaultPlan::BlockCorruption spec;
  spec.probability = 1.0;  // every replica of every block rots
  rot.Add(spec);
  DfsVolumeOptions options = SmallBlocks();
  options.fault_plan = &rot;
  Result<DfsVolume> v = DfsVolume::Open(dir, options);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v.value().WriteFile("data", Payload(64)).ok());  // writer sees OK
  Result<std::string> read = v.value().ReadFile("data");
  ASSERT_FALSE(read.ok());  // never silently wrong bytes
  EXPECT_GT(v.value().stats().corrupt_replicas, 0);
}

TEST(DfsFaultTest, ScrubRestoresFullReplication) {
  const ScopedTestDir test_dir("scrub");
  const std::string& dir = test_dir.path();
  Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(v.ok());
  const std::string payload = Payload(64 * 3);  // three blocks
  ASSERT_TRUE(v.value().WriteFile("data", payload).ok());

  // Damage two different blocks so each keeps one good copy: delete a
  // replica of block 0, corrupt a replica of block 1.
  ASSERT_EQ(BlockReplicaPaths(v.value(), "data").size(), 6u);
  std::vector<int> block0 = ManifestReplicas(v.value(), "data", 0);
  std::vector<int> block1 = ManifestReplicas(v.value(), "data", 1);
  ASSERT_EQ(block0.size(), 2u);
  ASSERT_EQ(block1.size(), 2u);
  ASSERT_EQ(
      std::remove(ReplicaPath(v.value(), "data", 0, block0[0]).c_str()), 0);
  FlipByte(ReplicaPath(v.value(), "data", 1, block1[1]), 5);

  Result<ScrubReport> scrub = v.value().Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_EQ(scrub.value().files_scanned, 1);
  EXPECT_EQ(scrub.value().blocks_checked, 3);
  EXPECT_EQ(scrub.value().replicas_missing, 1);
  EXPECT_EQ(scrub.value().replicas_corrupt, 1);
  EXPECT_EQ(scrub.value().replicas_rewritten, 2);
  EXPECT_EQ(scrub.value().under_replicated_blocks, 2);  // pre-repair
  EXPECT_EQ(scrub.value().unrecoverable_blocks, 0);
  int64_t bad_total = 0;
  for (int64_t n : scrub.value().bad_replicas_per_node) bad_total += n;
  EXPECT_EQ(bad_total, 2);

  // A follow-up scrub sees a fully replicated, intact volume.
  Result<ScrubReport> again = v.value().Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().replicas_missing, 0);
  EXPECT_EQ(again.value().replicas_corrupt, 0);
  EXPECT_EQ(again.value().under_replicated_blocks, 0);
  EXPECT_EQ(again.value().replicas_rewritten, 0);

  Result<std::string> read = v.value().ReadFile("data");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
}

TEST(DfsFaultTest, ScrubReportsUnrecoverableBlocks) {
  const ScopedTestDir test_dir("unrecoverable");
  const std::string& dir = test_dir.path();
  Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v.value().WriteFile("data", Payload(64)).ok());
  for (const std::string& path : BlockReplicaPaths(v.value(), "data")) {
    FlipByte(path, 3);  // both replicas rot: nothing to repair from
  }
  Result<ScrubReport> scrub = v.value().Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_EQ(scrub.value().unrecoverable_blocks, 1);
  EXPECT_EQ(scrub.value().replicas_rewritten, 0);
}

TEST(DfsFaultTest, RepeatedNodeFailuresMarkNodeSuspect) {
  const ScopedTestDir test_dir("suspect");
  const std::string& dir = test_dir.path();
  FaultPlan broken(9);
  FaultPlan::IoError spec;
  spec.node = 2;
  spec.probability = 1.0;  // node 2 fails every operation
  broken.Add(spec);
  DfsVolumeOptions options = SmallBlocks();
  options.fault_plan = &broken;
  options.suspect_failure_threshold = 3;
  Result<DfsVolume> v = DfsVolume::Open(dir, options);
  ASSERT_TRUE(v.ok());
  const std::string payload = Payload(64 * 8);
  ASSERT_TRUE(v.value().WriteFile("data", payload).ok());
  EXPECT_TRUE(v.value().NodeSuspect(2));
  EXPECT_FALSE(v.value().NodeSuspect(0));
  EXPECT_GT(v.value().stats().nodes_suspected, 0);
  EXPECT_GT(v.value().stats().write_failovers, 0);

  Result<std::string> read = v.value().ReadFile("data");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), payload);
}

TEST(DfsFaultTest, StagingOrphansAreGarbageCollectedByAge) {
  const ScopedTestDir test_dir("staginggc");
  const std::string& dir = test_dir.path();
  {
    Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v.value().WriteFile("data", Payload(64 * 2)).ok());
  }
  // Plant two orphans: one ancient, one fresh.
  const std::string old_orphan = dir + "/.dead.staging";
  const std::string new_orphan = dir + "/.alive.staging";
  {
    std::ofstream(old_orphan) << "leftover";
    std::ofstream(new_orphan) << "in flight";
  }
  fs::last_write_time(old_orphan,
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(24));

  DfsVolumeOptions options = SmallBlocks();
  options.staging_gc_age_seconds = 3600;
  Result<DfsVolume> v = DfsVolume::Open(dir, options);  // GC runs at Open
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(fs::exists(old_orphan));
  EXPECT_TRUE(fs::exists(new_orphan));  // younger than the GC age
  EXPECT_EQ(v.value().stats().staging_files_removed, 1);

  // Committed data is untouched and still reads back.
  Result<std::string> read = v.value().ReadFile("data");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Payload(64 * 2));

  // Scrub() also garbage collects once the orphan ages out.
  fs::last_write_time(new_orphan,
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(24));
  Result<ScrubReport> scrub = v.value().Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_EQ(scrub.value().staging_files_removed, 1);
  EXPECT_FALSE(fs::exists(new_orphan));
}

TEST(DfsFaultTest, ReadRetryBackoffRespectsNotFoundFastPath) {
  // A missing replica is deterministic — the volume must not burn its
  // retry budget on it. A volume whose file was fully deleted returns
  // NotFound without any retries.
  const ScopedTestDir test_dir("notfound");
  const std::string& dir = test_dir.path();
  Result<DfsVolume> v = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(v.ok());
  Result<std::string> read = v.value().ReadFile("never-written");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value().stats().io_retries, 0);
}

}  // namespace
}  // namespace casm
