// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "dfs/volume.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "dfs/dfs.h"
#include "obs/event.h"

namespace casm {
namespace {

namespace fs = std::filesystem;

bool ValidFileName(const std::string& name) {
  if (name.empty() || name.size() > 200 || name[0] == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ull) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// splitmix64 finalizer, for deterministic backoff jitter.
uint64_t MixBits(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string CrcHex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

std::string ManifestPath(const std::string& root, const std::string& name) {
  return root + "/" + name + ".manifest";
}

std::string BlockPath(const std::string& root, int node,
                      const std::string& name, int block) {
  return root + "/node" + std::to_string(node) + "/" + name + ".blk" +
         std::to_string(block);
}

/// fflush + fsync so the bytes survive a crash, not just a process exit.
Status SyncAndClose(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    std::fclose(file);
    return Status::Internal("cannot flush " + path);
  }
  if (::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    return Status::Internal("cannot fsync " + path);
  }
  if (std::fclose(file) != 0) {
    return Status::Internal("cannot close " + path);
  }
  return Status::OK();
}

/// fsync on a directory makes a just-renamed entry durable.
Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot open directory " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("cannot fsync directory " + path);
  return Status::OK();
}

Status WriteAndSync(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::Internal("cannot create " + path);
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    std::fclose(file);
    std::remove(path.c_str());
    return Status::Internal("short write to " + path);
  }
  return SyncAndClose(file, path);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const size_t n = std::fread(buf, 1, sizeof(buf), file);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool bad = std::ferror(file) != 0;
  std::fclose(file);
  if (bad) return Status::Internal("read error on " + path);
  return out;
}

/// Parsed committed-file metadata.
struct Manifest {
  int64_t total_bytes = 0;
  int64_t block_size = 0;
  struct Block {
    int64_t size = 0;
    uint32_t crc = 0;
    std::vector<int> replicas;
  };
  std::vector<Block> blocks;
};

/// Strict parse of the manifest text. The trailing `end <crc>` line
/// checksums everything before it, so a torn (truncated or bit-flipped)
/// manifest is rejected here and the file is treated as not committed.
Result<Manifest> ParseManifest(const std::string& text,
                               const std::string& name) {
  const auto corrupt = [&](const std::string& why) {
    return Status::Internal("manifest for '" + name + "' corrupt: " + why);
  };
  const size_t end_pos = text.rfind("\nend ");
  if (end_pos == std::string::npos) return corrupt("missing end line");
  const std::string body = text.substr(0, end_pos + 1);  // includes '\n'
  std::istringstream tail(text.substr(end_pos + 1));
  std::string word, end_crc_hex;
  if (!(tail >> word >> end_crc_hex) || word != "end") {
    return corrupt("malformed end line");
  }
  if (CrcHex(Crc32(body)) != end_crc_hex) return corrupt("checksum mismatch");

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != "casm-dfs-manifest v1") {
    return corrupt("bad header");
  }
  Manifest m;
  std::string manifest_name;
  int64_t num_blocks = -1;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "name") {
      fields >> manifest_name;
    } else if (key == "bytes") {
      fields >> m.total_bytes;
    } else if (key == "block_size") {
      fields >> m.block_size;
    } else if (key == "blocks") {
      fields >> num_blocks;
    } else if (key == "block") {
      int64_t index = -1;
      Manifest::Block b;
      std::string crc_hex;
      fields >> index >> b.size >> crc_hex;
      if (fields.fail() || index != static_cast<int64_t>(m.blocks.size()) ||
          b.size < 0 || crc_hex.size() != 8) {
        return corrupt("malformed block line");
      }
      b.crc = static_cast<uint32_t>(std::stoul(crc_hex, nullptr, 16));
      int node = -1;
      while (fields >> node) b.replicas.push_back(node);
      if (b.replicas.empty()) return corrupt("block without replicas");
      m.blocks.push_back(std::move(b));
    } else if (!key.empty()) {
      return corrupt("unknown field '" + key + "'");
    }
    if (fields.bad()) return corrupt("unreadable line");
  }
  if (manifest_name != name) return corrupt("name mismatch");
  if (num_blocks != static_cast<int64_t>(m.blocks.size())) {
    return corrupt("block count mismatch");
  }
  int64_t sum = 0;
  for (const Manifest::Block& b : m.blocks) sum += b.size;
  if (sum != m.total_bytes) return corrupt("size mismatch");
  return m;
}

/// Builds and atomically publishes the manifest for `name`: temp + fsync +
/// rename + directory fsync. The rename is the commit point. Shared by
/// FileWriter::Commit() and Scrub()'s re-replication path.
Status PublishManifest(const std::string& root, const std::string& name,
                       int64_t total_bytes, int64_t block_size,
                       const std::vector<int64_t>& sizes,
                       const std::vector<uint32_t>& crcs,
                       const std::vector<std::vector<int>>& replicas) {
  const int num_blocks = static_cast<int>(sizes.size());
  std::ostringstream manifest;
  manifest << "casm-dfs-manifest v1\n";
  manifest << "name " << name << "\n";
  manifest << "bytes " << total_bytes << "\n";
  manifest << "block_size " << block_size << "\n";
  manifest << "blocks " << num_blocks << "\n";
  for (int i = 0; i < num_blocks; ++i) {
    manifest << "block " << i << " " << sizes[static_cast<size_t>(i)] << " "
             << CrcHex(crcs[static_cast<size_t>(i)]);
    for (int node : replicas[static_cast<size_t>(i)]) manifest << " " << node;
    manifest << "\n";
  }
  const std::string body = manifest.str();
  const std::string text = body + "end " + CrcHex(Crc32(body)) + "\n";
  const std::string final_path = ManifestPath(root, name);
  const std::string tmp_path = final_path + ".tmp";
  CASM_RETURN_IF_ERROR(WriteAndSync(tmp_path, text));
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename manifest for '" + name + "'");
  }
  return SyncDirectory(root);
}

const FaultPlan* ResolvedPlan(const DfsVolumeOptions& options) {
  return options.fault_plan != nullptr ? options.fault_plan
                                       : FaultPlan::FromEnv();
}

/// Decorrelated-jitter backoff sleep before IO retry number `retry`
/// (0-based): uniform in [base, min(cap, base * 3^retry)], jitter hashed
/// from the site so replays are deterministic.
void SleepIoBackoff(const DfsVolumeOptions& options, int retry,
                    uint64_t site) {
  const double base =
      static_cast<double>(std::max<int64_t>(options.io_retry_backoff_initial_ms, 0)) /
      1000.0;
  if (base <= 0) return;
  const double cap =
      static_cast<double>(std::max(options.io_retry_backoff_max_ms,
                                   options.io_retry_backoff_initial_ms)) /
      1000.0;
  double hi = base;
  for (int i = 0; i < retry && hi < cap; ++i) hi *= 3;
  hi = std::min(hi, cap);
  const double unit =
      UnitFromHash(MixBits(site ^ (0xb0ffull + static_cast<uint64_t>(retry))));
  const double delay = base + unit * (hi - base);
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime: resilience state shared by every copy of a volume handle.

struct DfsVolume::FileWriter::Runtime {
  explicit Runtime(int num_nodes)
      : node_failures(static_cast<size_t>(num_nodes)),
        node_suspect(static_cast<size_t>(num_nodes)) {}

  /// Consecutive failed operations per node; reset by any success.
  std::vector<std::atomic<int>> node_failures;
  /// Sticky until an operation on the node succeeds again.
  std::vector<std::atomic<bool>> node_suspect;

  std::atomic<int64_t> io_retries{0};
  std::atomic<int64_t> write_failovers{0};
  std::atomic<int64_t> corrupt_replicas{0};
  std::atomic<int64_t> repaired_replicas{0};
  std::atomic<int64_t> under_replicated_blocks{0};
  std::atomic<int64_t> nodes_suspected{0};
  std::atomic<int64_t> staging_files_removed{0};

  /// Keys "<file>#<block>" whose corruption was already logged, so rot is
  /// reported to stderr once per block, not once per read.
  std::mutex log_mu;
  std::set<std::string> logged_corrupt;

  void RecordNodeResult(const DfsVolumeOptions& options, int node, bool ok) {
    if (node < 0 || node >= static_cast<int>(node_failures.size())) return;
    auto& failures = node_failures[static_cast<size_t>(node)];
    auto& suspect = node_suspect[static_cast<size_t>(node)];
    if (ok) {
      failures.store(0, std::memory_order_relaxed);
      suspect.store(false, std::memory_order_relaxed);
      return;
    }
    const int f = failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (f >= options.suspect_failure_threshold &&
        !suspect.exchange(true, std::memory_order_relaxed)) {
      nodes_suspected.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool Suspect(int node) const {
    if (node < 0 || node >= static_cast<int>(node_suspect.size())) {
      return false;
    }
    return node_suspect[static_cast<size_t>(node)].load(
        std::memory_order_relaxed);
  }

  /// Logs one corrupt-replica line per (file, block).
  void LogCorruptOnce(const std::string& name, int block, int node) {
    const std::string key = name + "#" + std::to_string(block);
    {
      std::unique_lock<std::mutex> lock(log_mu);
      if (!logged_corrupt.insert(key).second) return;
    }
    CASM_LOG(WARN) << "casm-dfs: corrupt replica of '" << name << "' block "
                   << block << " on node " << node << " (checksum mismatch)";
  }
};

namespace {

using Runtime = DfsVolume::FileWriter::Runtime;

/// One replica write with fault injection, health accounting, and bounded
/// retry + backoff. A FaultPlan corruption spec makes the write *succeed*
/// with rotted bytes — silent rot that only a CRC check can see later.
/// Returns immediately (no retries) when the node is in an outage window.
Status WriteReplicaWithRetry(const std::string& root,
                             const DfsVolumeOptions& options,
                             const FaultPlan* plan, Runtime* runtime,
                             const obs::Context& obs, const std::string& name,
                             int block, int node, std::string_view bytes) {
  if (plan != nullptr && plan->NodeDown(node)) {
    return Status::Internal("node " + std::to_string(node) + " is down");
  }
  const std::string path = BlockPath(root, node, name, block);
  std::error_code ec;
  fs::create_directories(root + "/node" + std::to_string(node), ec);
  const uint64_t site = Fnv1a64(name) ^ (static_cast<uint64_t>(block) << 8) ^
                        static_cast<uint64_t>(node);
  Status last;
  for (int retry = 0;; ++retry) {
    Status s;
    bool rot = false;
    if (plan != nullptr && plan->armed()) {
      s = plan->OnIo("write", node);
      if (s.ok()) rot = plan->ShouldCorruptBlock(name, block, node);
    }
    if (s.ok()) {
      if (rot) {
        std::string rotted(bytes);
        if (rotted.empty()) {
          rotted.push_back('\x01');
        } else {
          rotted[0] = static_cast<char>(rotted[0] ^ 0x40);
        }
        s = WriteAndSync(path, rotted);
      } else {
        s = WriteAndSync(path, bytes);
      }
    }
    if (runtime != nullptr) runtime->RecordNodeResult(options, node, s.ok());
    if (s.ok()) return s;
    last = std::move(s);
    if (retry >= options.max_io_retries ||
        (plan != nullptr && plan->NodeDown(node))) {
      return last;
    }
    if (runtime != nullptr) {
      runtime->io_retries.fetch_add(1, std::memory_order_relaxed);
    }
    obs::Observe(&obs, {.kind = obs::Kind::kDfsRetry, .task = block,
                        .n = {node, 1}, .text = last.message()});
    SleepIoBackoff(options, retry, site);
  }
}

/// One replica read with fault injection, health accounting, and bounded
/// retry + backoff. NotFound (replica file absent) is deterministic and
/// returned immediately; transient errors are retried.
Result<std::string> ReadReplicaWithRetry(const std::string& root,
                                         const DfsVolumeOptions& options,
                                         const FaultPlan* plan,
                                         Runtime* runtime,
                                         const obs::Context& obs,
                                         const std::string& name, int block,
                                         int node) {
  const std::string path = BlockPath(root, node, name, block);
  const uint64_t site = Fnv1a64(name) ^ (static_cast<uint64_t>(block) << 8) ^
                        static_cast<uint64_t>(node) ^ 0x4eadull;
  for (int retry = 0;; ++retry) {
    Status injected;
    if (plan != nullptr && plan->armed()) injected = plan->OnIo("read", node);
    Result<std::string> bytes =
        injected.ok() ? ReadWholeFile(path) : Result<std::string>(injected);
    if (bytes.ok()) {
      if (runtime != nullptr) runtime->RecordNodeResult(options, node, true);
      return bytes;
    }
    if (bytes.status().code() == StatusCode::kNotFound) return bytes;
    if (runtime != nullptr) runtime->RecordNodeResult(options, node, false);
    if (retry >= options.max_io_retries ||
        (plan != nullptr && plan->NodeDown(node))) {
      return bytes;
    }
    if (runtime != nullptr) {
      runtime->io_retries.fetch_add(1, std::memory_order_relaxed);
    }
    obs::Observe(&obs, {.kind = obs::Kind::kDfsRetry, .task = block,
                        .n = {node, 0}, .text = bytes.status().message()});
    SleepIoBackoff(options, retry, site);
  }
}

// ---------------------------------------------------------------------------
// Live-staging registry.
//
// Several concurrent queries may legitimately share one volume root (the
// multi-query service pointing every checkpointing query at a single
// CASM_CHECKPOINT_DIR). Staging GC used to decide liveness by mtime
// alone, so a volume Open()/Scrub() racing a slow in-flight writer —
// trivially with staging_gc_age_seconds lowered for tests, and for any
// writer stalled past the age in production — could delete a staging
// file the writer still needs: Commit() reopens it "rb" after the sync
// and would fail. Every open FileWriter therefore registers its staging
// path process-wide, and GC skips registered paths no matter their age.

std::mutex& LiveStagingMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::set<std::string>& LiveStagingPaths() {
  static std::set<std::string>* paths = new std::set<std::string>;
  return *paths;
}

/// One spelling per file, so registration (root + "/." + name +
/// ".staging") and GC (directory-iterator paths) agree even when the two
/// spell the root differently ("dir" vs "dir/").
std::string StagingKey(const std::string& path) {
  std::error_code ec;
  fs::path normalized = fs::absolute(path, ec);
  if (ec) return path;
  return normalized.lexically_normal().string();
}

void RegisterLiveStaging(const std::string& path) {
  std::lock_guard<std::mutex> lock(LiveStagingMutex());
  LiveStagingPaths().insert(StagingKey(path));
}

void UnregisterLiveStaging(const std::string& path) {
  std::lock_guard<std::mutex> lock(LiveStagingMutex());
  LiveStagingPaths().erase(StagingKey(path));
}

bool IsLiveStaging(const std::string& path) {
  std::lock_guard<std::mutex> lock(LiveStagingMutex());
  return LiveStagingPaths().count(StagingKey(path)) > 0;
}

/// Removes staging orphans (".<name>.staging" in the volume root) older
/// than the GC age. Committed blocks and manifests are never touched —
/// only dot-prefixed staging paths match, and paths registered by a live
/// in-process writer are skipped regardless of age. Returns the number
/// removed.
int64_t RemoveStaleStagingFiles(const std::string& root,
                                const DfsVolumeOptions& options) {
  int64_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string file = entry.path().filename().string();
    const std::string suffix = ".staging";
    if (file.empty() || file[0] != '.' || file.size() <= suffix.size() ||
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    if (IsLiveStaging(entry.path().string())) continue;
    std::error_code time_ec;
    const auto mtime = fs::last_write_time(entry.path(), time_ec);
    if (time_ec) continue;
    const double age_seconds =
        std::chrono::duration<double>(now - mtime).count();
    if (age_seconds < options.staging_gc_age_seconds) continue;
    if (std::remove(entry.path().string().c_str()) == 0) ++removed;
  }
  return removed;
}

}  // namespace

// ---------------------------------------------------------------------------
// FileWriter

DfsVolume::FileWriter::FileWriter(std::string root, DfsVolumeOptions options,
                                  std::string name,
                                  std::shared_ptr<Runtime> runtime)
    : root_(std::move(root)),
      options_(options),
      name_(std::move(name)),
      staging_path_(root_ + "/." + name_ + ".staging"),
      runtime_(std::move(runtime)) {}

DfsVolume::FileWriter::FileWriter(FileWriter&& other) noexcept
    : root_(std::move(other.root_)),
      options_(other.options_),
      name_(std::move(other.name_)),
      staging_path_(std::move(other.staging_path_)),
      staging_(other.staging_),
      pending_(std::move(other.pending_)),
      block_sizes_(std::move(other.block_sizes_)),
      block_crcs_(std::move(other.block_crcs_)),
      total_bytes_(other.total_bytes_),
      committed_(other.committed_),
      runtime_(std::move(other.runtime_)) {
  other.staging_ = nullptr;
  other.committed_ = true;  // moved-from shell owns nothing to discard
}

DfsVolume::FileWriter& DfsVolume::FileWriter::operator=(
    FileWriter&& other) noexcept {
  if (this != &other) {
    Discard();
    root_ = std::move(other.root_);
    options_ = other.options_;
    name_ = std::move(other.name_);
    staging_path_ = std::move(other.staging_path_);
    staging_ = other.staging_;
    pending_ = std::move(other.pending_);
    block_sizes_ = std::move(other.block_sizes_);
    block_crcs_ = std::move(other.block_crcs_);
    total_bytes_ = other.total_bytes_;
    committed_ = other.committed_;
    runtime_ = std::move(other.runtime_);
    other.staging_ = nullptr;
    other.committed_ = true;
  }
  return *this;
}

DfsVolume::FileWriter::~FileWriter() { Discard(); }

void DfsVolume::FileWriter::Discard() {
  if (staging_ != nullptr) {
    std::fclose(staging_);
    staging_ = nullptr;
  }
  if (!committed_ && !staging_path_.empty()) {
    std::remove(staging_path_.c_str());
    UnregisterLiveStaging(staging_path_);
  }
}

Status DfsVolume::FileWriter::EnsureStaging() {
  if (staging_ != nullptr) return Status::OK();
  staging_ = std::fopen(staging_path_.c_str(), "wb");
  if (staging_ == nullptr) {
    return Status::Internal("cannot create staging file " + staging_path_);
  }
  // Shield the file from concurrent staging GC (another query scrubbing
  // or reopening the same volume root) until Commit or Discard.
  RegisterLiveStaging(staging_path_);
  return Status::OK();
}

Status DfsVolume::FileWriter::SealBlock(std::string_view bytes) {
  CASM_RETURN_IF_ERROR(EnsureStaging());
  if (std::fwrite(bytes.data(), 1, bytes.size(), staging_) != bytes.size()) {
    return Status::Internal("short write to staging file " + staging_path_);
  }
  block_sizes_.push_back(static_cast<int64_t>(bytes.size()));
  block_crcs_.push_back(Crc32(bytes));
  return Status::OK();
}

Status DfsVolume::FileWriter::Append(std::string_view bytes) {
  if (committed_) {
    return Status::FailedPrecondition("Append after Commit on '" + name_ +
                                      "'");
  }
  total_bytes_ += static_cast<int64_t>(bytes.size());
  pending_.append(bytes.data(), bytes.size());
  const size_t block = static_cast<size_t>(options_.block_size_bytes);
  while (pending_.size() >= block) {
    CASM_RETURN_IF_ERROR(SealBlock(std::string_view(pending_).substr(0, block)));
    pending_.erase(0, block);
  }
  return Status::OK();
}

Status DfsVolume::FileWriter::Commit() {
  if (committed_) {
    return Status::FailedPrecondition("double Commit on '" + name_ + "'");
  }
  if (!pending_.empty()) {
    CASM_RETURN_IF_ERROR(SealBlock(pending_));
    pending_.clear();
  }
  const int num_blocks = static_cast<int>(block_sizes_.size());
  if (staging_ != nullptr) {
    std::FILE* f = staging_;
    staging_ = nullptr;
    CASM_RETURN_IF_ERROR(SyncAndClose(f, staging_path_));
  }

  const FaultPlan* plan = ResolvedPlan(options_);
  const obs::Context obs(options_.trace);
  const double span_start = obs.Now();
  Runtime* runtime = runtime_.get();

  // Preferred replica placement reuses the table-placement logic: one
  // "row" per block, replicas on distinct nodes, deterministic in (seed,
  // name). Failover below may move replicas off the preferred nodes; the
  // manifest records where each replica actually landed.
  DfsOptions placement_options;
  placement_options.num_nodes = options_.num_nodes;
  placement_options.replication = options_.replication;
  placement_options.block_size_rows = 1;
  placement_options.seed = options_.seed ^ Fnv1a64(name_);
  std::vector<std::vector<int>> preferred(static_cast<size_t>(num_blocks));
  if (num_blocks > 0) {
    CASM_ASSIGN_OR_RETURN(
        DistributedFile placement,
        DistributedFile::Store(num_blocks, placement_options));
    CASM_CHECK_EQ(placement.num_blocks(), num_blocks);
    for (int i = 0; i < num_blocks; ++i) {
      preferred[static_cast<size_t>(i)] = placement.block(i).replicas;
    }
  }

  // Copy each staged block to its replicas. Candidate order per block:
  // healthy preferred nodes, then healthy others (rotating from the node
  // after the first preferred), then suspect preferred, then suspect
  // others; nodes in an outage window are skipped entirely. The write to
  // each candidate retries transient errors with backoff; a candidate
  // that still fails is passed over (failover). The commit fails only
  // when a block cannot be placed on any node at all.
  std::FILE* staged = nullptr;
  if (num_blocks > 0) {
    staged = std::fopen(staging_path_.c_str(), "rb");
    if (staged == nullptr) {
      return Status::Internal("cannot reopen staging file " + staging_path_);
    }
  }
  const int target = std::min(options_.replication, options_.num_nodes);
  std::vector<std::vector<int>> chosen(static_cast<size_t>(num_blocks));
  std::string block_bytes;
  Status status;
  for (int i = 0; i < num_blocks && status.ok(); ++i) {
    block_bytes.resize(
        static_cast<size_t>(block_sizes_[static_cast<size_t>(i)]));
    if (!block_bytes.empty() &&
        std::fread(block_bytes.data(), 1, block_bytes.size(), staged) !=
            block_bytes.size()) {
      status = Status::Internal("short read from staging file " +
                                staging_path_);
      break;
    }
    const std::vector<int>& want = preferred[static_cast<size_t>(i)];
    auto is_preferred = [&want](int n) {
      return std::find(want.begin(), want.end(), n) != want.end();
    };
    auto is_down = [&](int n) { return plan != nullptr && plan->NodeDown(n); };
    auto is_suspect = [&](int n) {
      return runtime != nullptr && runtime->Suspect(n);
    };
    std::vector<int> others;
    const int start = want.empty() ? 0 : (want[0] + 1) % options_.num_nodes;
    for (int k = 0; k < options_.num_nodes; ++k) {
      const int n = (start + k) % options_.num_nodes;
      if (!is_preferred(n)) others.push_back(n);
    }
    std::vector<int> candidates;
    for (int pass = 0; pass < 4; ++pass) {
      const bool want_suspect = pass >= 2;
      const std::vector<int>& pool = (pass % 2 == 0) ? want : others;
      for (int n : pool) {
        if (is_down(n) || is_suspect(n) != want_suspect) continue;
        candidates.push_back(n);
      }
    }
    std::vector<int>& placed = chosen[static_cast<size_t>(i)];
    for (int n : candidates) {
      if (static_cast<int>(placed.size()) >= target) break;
      Status w = WriteReplicaWithRetry(root_, options_, plan, runtime, obs,
                                       name_, i, n, block_bytes);
      if (w.ok()) placed.push_back(n);
    }
    if (placed.empty()) {
      status = Status::Internal("block " + std::to_string(i) + " of '" +
                                name_ + "' could not be placed on any node");
      break;
    }
    for (int n : want) {
      if (std::find(placed.begin(), placed.end(), n) != placed.end()) {
        continue;
      }
      if (runtime != nullptr) {
        runtime->write_failovers.fetch_add(1, std::memory_order_relaxed);
      }
      obs::Observe(&obs, {.kind = obs::Kind::kDfsFailover, .task = i, .n = {n},
                          .text = name_});
    }
    if (static_cast<int>(placed.size()) < target) {
      if (runtime != nullptr) {
        runtime->under_replicated_blocks.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      obs::Observe(&obs, {.kind = obs::Kind::kDfsUnderReplicated, .task = i,
                          .text = name_});
    }
  }
  if (staged != nullptr) std::fclose(staged);
  CASM_RETURN_IF_ERROR(status);

  CASM_RETURN_IF_ERROR(PublishManifest(root_, name_, total_bytes_,
                                       options_.block_size_bytes, block_sizes_,
                                       block_crcs_, chosen));
  obs::Observe(&obs, {.kind = obs::Kind::kDfsWrite, .start = span_start,
                      .text = name_});

  committed_ = true;
  std::remove(staging_path_.c_str());
  UnregisterLiveStaging(staging_path_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DfsVolume

DfsVolume::DfsVolume(std::string root, DfsVolumeOptions options,
                     std::shared_ptr<Runtime> runtime)
    : root_(std::move(root)),
      options_(options),
      runtime_(std::move(runtime)) {}

DfsVolume::DfsVolume(const DfsVolume&) = default;
DfsVolume& DfsVolume::operator=(const DfsVolume&) = default;
DfsVolume::DfsVolume(DfsVolume&&) noexcept = default;
DfsVolume& DfsVolume::operator=(DfsVolume&&) noexcept = default;
DfsVolume::~DfsVolume() = default;

Result<DfsVolume> DfsVolume::Open(const std::string& root_dir,
                                  const DfsVolumeOptions& options) {
  if (root_dir.empty()) {
    return Status::InvalidArgument("DfsVolume root directory is empty");
  }
  if (options.num_nodes < 1 || options.replication < 1 ||
      options.block_size_bytes < 1) {
    return Status::InvalidArgument("invalid DfsVolumeOptions");
  }
  std::error_code ec;
  fs::create_directories(root_dir, ec);
  if (ec) {
    return Status::Internal("cannot create volume root " + root_dir + ": " +
                            ec.message());
  }
  DfsVolumeOptions clamped = options;
  clamped.replication = std::min(clamped.replication, clamped.num_nodes);
  auto runtime = std::make_shared<Runtime>(clamped.num_nodes);
  runtime->staging_files_removed.fetch_add(
      RemoveStaleStagingFiles(root_dir, clamped), std::memory_order_relaxed);
  return DfsVolume(root_dir, clamped, std::move(runtime));
}

Result<DfsVolume::FileWriter> DfsVolume::CreateFile(
    const std::string& name) const {
  if (!ValidFileName(name)) {
    return Status::InvalidArgument("invalid DFS file name '" + name + "'");
  }
  return FileWriter(root_, options_, name, runtime_);
}

Status DfsVolume::WriteFile(const std::string& name,
                            std::string_view bytes) const {
  CASM_ASSIGN_OR_RETURN(FileWriter writer, CreateFile(name));
  CASM_RETURN_IF_ERROR(writer.Append(bytes));
  return writer.Commit();
}

bool DfsVolume::Exists(const std::string& name) const {
  if (!ValidFileName(name)) return false;
  std::error_code ec;
  return fs::exists(ManifestPath(root_, name), ec);
}

Result<std::string> DfsVolume::ReadFile(const std::string& name,
                                        ReadStats* stats) const {
  if (!ValidFileName(name)) {
    return Status::InvalidArgument("invalid DFS file name '" + name + "'");
  }
  std::error_code ec;
  const std::string manifest_path = ManifestPath(root_, name);
  if (!fs::exists(manifest_path, ec)) {
    return Status::NotFound("no committed file '" + name + "' in " + root_);
  }
  CASM_ASSIGN_OR_RETURN(std::string manifest_text,
                        ReadWholeFile(manifest_path));
  CASM_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(manifest_text, name));

  const FaultPlan* plan = ResolvedPlan(options_);
  const obs::Context obs(options_.trace);
  const double span_start = obs.Now();
  Runtime* runtime = runtime_.get();

  std::string out;
  out.reserve(static_cast<size_t>(manifest.total_bytes));
  for (size_t i = 0; i < manifest.blocks.size(); ++i) {
    const Manifest::Block& block = manifest.blocks[i];
    const int block_index = static_cast<int>(i);
    bool found = false;
    int good_node = -1;
    std::string good_bytes;
    std::vector<int> corrupt_nodes;
    for (int node : block.replicas) {
      if (plan != nullptr && plan->NodeDown(node)) {
        if (stats != nullptr) ++stats->replica_fallbacks;
        continue;
      }
      Result<std::string> bytes = ReadReplicaWithRetry(
          root_, options_, plan, runtime, obs, name, block_index, node);
      if (!bytes.ok()) {
        if (stats != nullptr) ++stats->replica_fallbacks;
        continue;
      }
      if (static_cast<int64_t>(bytes->size()) == block.size &&
          Crc32(*bytes) == block.crc) {
        good_bytes = std::move(*bytes);
        good_node = node;
        found = true;
        break;
      }
      // Bytes present but wrong: rot. Count it, log once per block, and
      // remember the node for repair once a good copy is found.
      corrupt_nodes.push_back(node);
      if (stats != nullptr) {
        ++stats->replica_fallbacks;
        ++stats->corrupt_replicas;
      }
      if (runtime != nullptr) {
        runtime->corrupt_replicas.fetch_add(1, std::memory_order_relaxed);
        runtime->LogCorruptOnce(name, block_index, node);
      }
      obs::Observe(&obs, {.kind = obs::Kind::kDfsCorrupt, .task = block_index,
                          .n = {node}, .text = name});
    }
    if (!found) {
      obs::Observe(&obs, {.kind = obs::Kind::kDfsRead, .task = block_index,
                          .outcome = TraceOutcome::kFailed, .start = span_start,
                          .text = name});
      return Status::Internal("block " + std::to_string(i) + " of '" + name +
                              "' failed checksum on all replicas");
    }
    // Repair-on-read: rewrite the corrupt replicas from the good copy
    // (best effort — the read already succeeded).
    for (int node : corrupt_nodes) {
      Status repaired =
          WriteReplicaWithRetry(root_, options_, plan, runtime, obs, name,
                                block_index, node, good_bytes);
      if (!repaired.ok()) continue;
      if (stats != nullptr) ++stats->repaired_replicas;
      if (runtime != nullptr) {
        runtime->repaired_replicas.fetch_add(1, std::memory_order_relaxed);
      }
      obs::Observe(&obs, {.kind = obs::Kind::kDfsRepair, .task = block_index,
                          .n = {node, good_node}, .text = name});
    }
    out.append(good_bytes);
    if (stats != nullptr) ++stats->blocks_read;
  }
  if (static_cast<int64_t>(out.size()) != manifest.total_bytes) {
    return Status::Internal("reassembled size mismatch for '" + name + "'");
  }
  obs::Observe(&obs, {.kind = obs::Kind::kDfsRead, .start = span_start,
                      .text = name});
  return out;
}

Status DfsVolume::DeleteFile(const std::string& name) const {
  if (!ValidFileName(name)) {
    return Status::InvalidArgument("invalid DFS file name '" + name + "'");
  }
  // Remove the manifest first: once it is gone the file "does not
  // exist" and leftover blocks are garbage, not a torn file.
  std::remove(ManifestPath(root_, name).c_str());
  std::error_code ec;
  for (int node = 0; node < options_.num_nodes; ++node) {
    const std::string dir = root_ + "/node" + std::to_string(node);
    if (!fs::exists(dir, ec)) continue;
    const std::string prefix = name + ".blk";
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(prefix, 0) == 0) {
        std::remove(entry.path().string().c_str());
      }
    }
  }
  std::remove((root_ + "/." + name + ".staging").c_str());
  return Status::OK();
}

std::vector<std::string> DfsVolume::ListFiles() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const std::string file = entry.path().filename().string();
    const std::string suffix = ".manifest";
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
      names.push_back(file.substr(0, file.size() - suffix.size()));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<ScrubReport> DfsVolume::Scrub() const {
  const FaultPlan* plan = ResolvedPlan(options_);
  const obs::Context obs(options_.trace);
  const double span_start = obs.Now();
  Runtime* runtime = runtime_.get();

  ScrubReport report;
  report.bad_replicas_per_node.assign(
      static_cast<size_t>(options_.num_nodes), 0);
  report.staging_files_removed = RemoveStaleStagingFiles(root_, options_);
  if (runtime != nullptr) {
    runtime->staging_files_removed.fetch_add(report.staging_files_removed,
                                             std::memory_order_relaxed);
  }
  const int target = std::min(options_.replication, options_.num_nodes);

  for (const std::string& name : ListFiles()) {
    ++report.files_scanned;
    Result<std::string> manifest_text =
        ReadWholeFile(ManifestPath(root_, name));
    if (!manifest_text.ok()) continue;
    Result<Manifest> parsed = ParseManifest(*manifest_text, name);
    if (!parsed.ok()) continue;  // torn manifest = not committed; skip
    const Manifest& manifest = *parsed;

    bool placement_changed = false;
    std::vector<std::vector<int>> new_replicas(manifest.blocks.size());
    std::vector<int64_t> sizes(manifest.blocks.size());
    std::vector<uint32_t> crcs(manifest.blocks.size());
    for (size_t i = 0; i < manifest.blocks.size(); ++i) {
      const Manifest::Block& block = manifest.blocks[i];
      const int block_index = static_cast<int>(i);
      sizes[i] = block.size;
      crcs[i] = block.crc;
      ++report.blocks_checked;

      std::vector<int> healthy;
      std::vector<int> bad;
      std::string good_bytes;
      bool have_good = false;
      for (int node : block.replicas) {
        ++report.replicas_checked;
        const auto count_bad = [&](bool corrupt) {
          (corrupt ? report.replicas_corrupt : report.replicas_missing) += 1;
          if (node >= 0 && node < options_.num_nodes) {
            ++report.bad_replicas_per_node[static_cast<size_t>(node)];
          }
          bad.push_back(node);
        };
        if (plan != nullptr && plan->NodeDown(node)) {
          count_bad(/*corrupt=*/false);
          continue;
        }
        Result<std::string> bytes = ReadReplicaWithRetry(
            root_, options_, plan, runtime, obs, name, block_index, node);
        if (!bytes.ok()) {
          count_bad(/*corrupt=*/false);
          continue;
        }
        if (static_cast<int64_t>(bytes->size()) == block.size &&
            Crc32(*bytes) == block.crc) {
          healthy.push_back(node);
          if (!have_good) {
            good_bytes = std::move(*bytes);
            have_good = true;
          }
        } else {
          count_bad(/*corrupt=*/true);
          if (runtime != nullptr) {
            runtime->corrupt_replicas.fetch_add(1, std::memory_order_relaxed);
            runtime->LogCorruptOnce(name, block_index, node);
          }
          obs::Observe(&obs, {.kind = obs::Kind::kDfsCorrupt,
                              .task = block_index, .n = {node, 0, 1},
                              .text = name});
        }
      }
      if (!have_good) {
        ++report.unrecoverable_blocks;
        new_replicas[i] = block.replicas;  // leave the manifest alone
        continue;
      }
      if (static_cast<int>(healthy.size()) < target) {
        ++report.under_replicated_blocks;
      }

      // Repair: rewrite the block's own bad replicas first, then place
      // extra copies on fresh nodes until the target is met.
      std::vector<int> final_nodes = healthy;
      const auto try_place = [&](int node) {
        if (static_cast<int>(final_nodes.size()) >= target) return;
        if (node < 0 || node >= options_.num_nodes) return;
        if (std::find(final_nodes.begin(), final_nodes.end(), node) !=
            final_nodes.end()) {
          return;
        }
        if (plan != nullptr && plan->NodeDown(node)) return;
        Status written =
            WriteReplicaWithRetry(root_, options_, plan, runtime, obs, name,
                                  block_index, node, good_bytes);
        if (!written.ok()) return;
        final_nodes.push_back(node);
        ++report.replicas_rewritten;
        if (runtime != nullptr) {
          runtime->repaired_replicas.fetch_add(1, std::memory_order_relaxed);
        }
        obs::Observe(&obs, {.kind = obs::Kind::kDfsRepair, .task = block_index,
                            .n = {node, -1, 1}, .text = name});
      };
      for (int node : bad) try_place(node);
      for (int k = 0; k < options_.num_nodes; ++k) {
        try_place((healthy.front() + 1 + k) % options_.num_nodes);
      }
      // A bad node the repair abandoned keeps a rotten block file around;
      // drop it so it cannot be confused for a replica later.
      for (int node : bad) {
        if (std::find(final_nodes.begin(), final_nodes.end(), node) ==
                final_nodes.end() &&
            !(plan != nullptr && plan->NodeDown(node))) {
          std::remove(BlockPath(root_, node, name, block_index).c_str());
        }
      }
      new_replicas[i] = final_nodes;
      if (final_nodes != block.replicas) placement_changed = true;
    }
    if (placement_changed) {
      CASM_RETURN_IF_ERROR(PublishManifest(
          root_, name, manifest.total_bytes, manifest.block_size, sizes, crcs,
          new_replicas));
    }
  }
  obs::Observe(&obs, {.kind = obs::Kind::kDfsScrub,
                      .start = span_start,
                      .text = obs.tracing() ? report.ToString()
                                            : std::string()});
  return report;
}

DfsVolumeStats DfsVolume::stats() const {
  DfsVolumeStats out;
  if (runtime_ == nullptr) return out;
  out.io_retries = runtime_->io_retries.load(std::memory_order_relaxed);
  out.write_failovers =
      runtime_->write_failovers.load(std::memory_order_relaxed);
  out.corrupt_replicas =
      runtime_->corrupt_replicas.load(std::memory_order_relaxed);
  out.repaired_replicas =
      runtime_->repaired_replicas.load(std::memory_order_relaxed);
  out.under_replicated_blocks =
      runtime_->under_replicated_blocks.load(std::memory_order_relaxed);
  out.nodes_suspected =
      runtime_->nodes_suspected.load(std::memory_order_relaxed);
  out.staging_files_removed =
      runtime_->staging_files_removed.load(std::memory_order_relaxed);
  return out;
}

bool DfsVolume::NodeSuspect(int node) const {
  return runtime_ != nullptr && runtime_->Suspect(node);
}

std::string ScrubReport::ToString() const {
  std::ostringstream os;
  os << "scrub: files=" << files_scanned << " blocks=" << blocks_checked
     << " replicas=" << replicas_checked << " missing=" << replicas_missing
     << " corrupt=" << replicas_corrupt
     << " rewritten=" << replicas_rewritten
     << " under_replicated=" << under_replicated_blocks
     << " unrecoverable=" << unrecoverable_blocks
     << " staging_removed=" << staging_files_removed;
  if (!bad_replicas_per_node.empty()) {
    os << " bad_per_node=[";
    for (size_t i = 0; i < bad_replicas_per_node.size(); ++i) {
      if (i > 0) os << " ";
      os << bad_replicas_per_node[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace casm
