// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the writable DFS volume (dfs/volume.h): durable
// create/append/commit semantics, atomic manifest publication (a file
// either exists fully or not at all), per-block CRC32 verification with
// replica fallback, and clean failure — never silently wrong bytes —
// when every replica of a block is corrupt or the manifest is torn.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "dfs/volume.h"
#include "scoped_test_dir.h"

namespace casm {
namespace {

namespace fs = std::filesystem;

DfsVolumeOptions SmallBlocks() {
  DfsVolumeOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  o.block_size_bytes = 64;  // force multi-block files from small payloads
  return o;
}

/// Paths of every on-disk replica of `name`'s blocks.
std::vector<std::string> BlockReplicaPaths(const DfsVolume& volume,
                                           const std::string& name) {
  std::vector<std::string> paths;
  for (int node = 0; node < volume.options().num_nodes; ++node) {
    const std::string dir =
        volume.root() + "/node" + std::to_string(node);
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

std::string Payload(size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + (i * 31 + i / 64) % 26));
  }
  return s;
}

TEST(Crc32Test, KnownVectorAndIncremental) {
  // The canonical IEEE CRC32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Continuation: CRC of a split buffer equals the one-shot CRC.
  const std::string s = Payload(1000);
  const uint32_t whole = Crc32(s.data(), s.size());
  const uint32_t part = Crc32(s.data() + 400, 600, Crc32(s.data(), 400));
  EXPECT_EQ(whole, part);
}

TEST(DfsVolumeTest, MultiBlockRoundtrip) {
  const ScopedTestDir dir("roundtrip");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok()) << volume.status();
  const std::string payload = Payload(1000);  // 16 blocks of 64 bytes
  ASSERT_TRUE(volume->WriteFile("table.bin", payload).ok());

  DfsVolume::ReadStats stats;
  Result<std::string> read = volume->ReadFile("table.bin", &stats);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(stats.blocks_read, 16);
  EXPECT_EQ(stats.replica_fallbacks, 0);
  // Every block landed on `replication` distinct nodes.
  EXPECT_EQ(BlockReplicaPaths(*volume, "table.bin").size(), 32u);
}

TEST(DfsVolumeTest, StreamingAppendsEqualOneShotWrite) {
  const ScopedTestDir dir("stream");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  const std::string payload = Payload(777);
  Result<DfsVolume::FileWriter> writer = volume->CreateFile("s.bin");
  ASSERT_TRUE(writer.ok()) << writer.status();
  // Append in ragged pieces that straddle block boundaries.
  for (size_t at = 0; at < payload.size();) {
    const size_t n = std::min<size_t>(13 + at % 91, payload.size() - at);
    ASSERT_TRUE(writer->Append(std::string_view(payload).substr(at, n)).ok());
    at += n;
  }
  EXPECT_EQ(writer->bytes_written(), 777);
  ASSERT_TRUE(writer->Commit().ok());
  Result<std::string> read = volume->ReadFile("s.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
}

TEST(DfsVolumeTest, UncommittedFileIsInvisible) {
  const ScopedTestDir dir("atomic");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  {
    Result<DfsVolume::FileWriter> writer = volume->CreateFile("ghost.bin");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(Payload(300)).ok());
    // Dropped without Commit: staged data is discarded.
  }
  EXPECT_FALSE(volume->Exists("ghost.bin"));
  EXPECT_EQ(volume->ReadFile("ghost.bin").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(volume->ListFiles().empty());
}

TEST(DfsVolumeTest, CommitReplacesPreviousFile) {
  const ScopedTestDir dir("replace");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE(volume->WriteFile("f.bin", Payload(500)).ok());
  const std::string second = Payload(90);  // shorter: fewer blocks
  ASSERT_TRUE(volume->WriteFile("f.bin", second).ok());
  Result<std::string> read = volume->ReadFile("f.bin");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), second);
}

TEST(DfsVolumeTest, CorruptReplicaFallsBackToGoodCopy) {
  const ScopedTestDir dir("fallback");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  const std::string payload = Payload(640);
  ASSERT_TRUE(volume->WriteFile("r.bin", payload).ok());

  // Corrupt one replica of each block: the CRC check must route every
  // read to the surviving copy.
  std::vector<std::string> replicas = BlockReplicaPaths(*volume, "r.bin");
  ASSERT_EQ(replicas.size(), 20u);  // 10 blocks x 2 replicas
  std::vector<bool> corrupted(10, false);
  for (const std::string& path : replicas) {
    const size_t block = std::stoul(path.substr(path.rfind(".blk") + 4));
    if (!corrupted[block]) {
      FlipByte(path, 5);
      corrupted[block] = true;
    }
  }

  DfsVolume::ReadStats stats;
  Result<std::string> read = volume->ReadFile("r.bin", &stats);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  EXPECT_GE(stats.replica_fallbacks, 1);
}

TEST(DfsVolumeTest, AllReplicasCorruptFailsCleanly) {
  const ScopedTestDir dir("dead");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE(volume->WriteFile("d.bin", Payload(200)).ok());
  for (const std::string& path : BlockReplicaPaths(*volume, "d.bin")) {
    FlipByte(path, 0);
  }
  Result<std::string> read = volume->ReadFile("d.bin");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
}

TEST(DfsVolumeTest, TornManifestFailsCleanly) {
  const ScopedTestDir test_dir("torn");
  const std::string& dir = test_dir.path();
  Result<DfsVolume> volume = DfsVolume::Open(dir, SmallBlocks());
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE(volume->WriteFile("t.bin", Payload(200)).ok());
  // Truncate the manifest mid-file (a torn write the rename protocol
  // prevents, simulated directly): the self-checksum must reject it.
  const std::string manifest = dir + "/t.bin.manifest";
  const auto size = fs::file_size(manifest);
  fs::resize_file(manifest, size / 2);
  Result<std::string> read = volume->ReadFile("t.bin");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
}

TEST(DfsVolumeTest, DeleteAndList) {
  const ScopedTestDir dir("list");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), SmallBlocks());
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE(volume->WriteFile("b.bin", Payload(10)).ok());
  ASSERT_TRUE(volume->WriteFile("a.bin", Payload(10)).ok());
  ASSERT_TRUE(volume->WriteFile("c.bin", Payload(10)).ok());
  EXPECT_EQ(volume->ListFiles(),
            (std::vector<std::string>{"a.bin", "b.bin", "c.bin"}));
  ASSERT_TRUE(volume->DeleteFile("b.bin").ok());
  EXPECT_FALSE(volume->Exists("b.bin"));
  EXPECT_TRUE(BlockReplicaPaths(*volume, "b.bin").empty());
  EXPECT_EQ(volume->ListFiles(),
            (std::vector<std::string>{"a.bin", "c.bin"}));
  // Deleting a file that does not exist is OK (idempotent).
  EXPECT_TRUE(volume->DeleteFile("b.bin").ok());
}

TEST(DfsVolumeTest, RejectsUnsafeNames) {
  const ScopedTestDir dir("names");
  Result<DfsVolume> volume = DfsVolume::Open(dir.path());
  ASSERT_TRUE(volume.ok());
  for (const char* bad : {"", "../evil", "a/b", ".hidden", "sp ace"}) {
    EXPECT_EQ(volume->CreateFile(bad).status().code(),
              StatusCode::kInvalidArgument)
        << "name: '" << bad << "'";
  }
}

TEST(DfsVolumeTest, ReplicationClampedToNodeCount) {
  DfsVolumeOptions o;
  o.num_nodes = 2;
  const ScopedTestDir dir("clamp");
  o.replication = 5;  // clamped to 2
  Result<DfsVolume> volume = DfsVolume::Open(dir.path(), o);
  ASSERT_TRUE(volume.ok());
  ASSERT_TRUE(volume->WriteFile("x.bin", Payload(10)).ok());
  EXPECT_EQ(BlockReplicaPaths(*volume, "x.bin").size(), 2u);
  EXPECT_EQ(volume->ReadFile("x.bin").value(), Payload(10));
}

}  // namespace
}  // namespace casm
