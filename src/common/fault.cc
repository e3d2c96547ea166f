// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "common/fault.h"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace casm {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
uint64_t MixBits(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool PhaseMatches(const std::string& want, const char* got) {
  return want.empty() || want == got;
}

bool IntMatches(int want, int got) { return want < 0 || want == got; }

std::string SiteSuffix(const char* phase, int task, int attempt) {
  std::ostringstream os;
  os << " (phase=" << phase << " task=" << task << " attempt=" << attempt
     << ")";
  return os.str();
}

}  // namespace

FaultPlan::FaultPlan(uint64_t seed)
    : seed_(seed), counters_(std::make_shared<Counters>()) {}

FaultPlan& FaultPlan::Add(TaskCrash spec) {
  crashes_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::Add(TaskSlowdown spec) {
  slowdowns_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::Add(RecordThrottle spec) {
  throttles_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::Add(IoError spec) {
  io_error_nth_slots_.push_back(spec.every_nth > 0 ? NewNthSlot() : -1);
  io_errors_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::Add(BlockCorruption spec) {
  corruption_nth_slots_.push_back(spec.every_nth > 0 ? NewNthSlot() : -1);
  corruptions_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::Add(NodeOutage spec) {
  outages_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::AddCrashHook(TaskStatusHook hook) {
  CASM_CHECK(hook != nullptr);
  crash_hooks_.push_back(std::move(hook));
  return *this;
}

FaultPlan& FaultPlan::AddSlowdownHook(TaskDelayHook hook) {
  CASM_CHECK(hook != nullptr);
  slowdown_hooks_.push_back(std::move(hook));
  return *this;
}

int FaultPlan::NewNthSlot() {
  counters_->nth.push_back(std::make_unique<std::atomic<int64_t>>(0));
  return static_cast<int>(counters_->nth.size()) - 1;
}

double FaultPlan::UnitHash(uint64_t tag, std::string_view s, int64_t a,
                           int64_t b, int64_t c) const {
  uint64_t h = MixBits(seed_ ^ tag);
  for (char ch : s) {
    h = MixBits(h ^ static_cast<uint64_t>(static_cast<unsigned char>(ch)));
  }
  h = MixBits(h ^ static_cast<uint64_t>(a));
  h = MixBits(h ^ static_cast<uint64_t>(b));
  h = MixBits(h ^ static_cast<uint64_t>(c));
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Status FaultPlan::OnTaskAttempt(const char* phase, int task,
                                int attempt) const {
  // Every hook runs on every attempt (hooks may count invocations);
  // the first failure wins but does not short-circuit later hooks.
  Status failed = Status::OK();
  for (const TaskStatusHook& hook : crash_hooks_) {
    Status s = hook(phase, task, attempt);
    if (!s.ok() && failed.ok()) failed = std::move(s);
  }
  if (!failed.ok()) {
    counters_->faults_injected.fetch_add(1, std::memory_order_relaxed);
    return failed;
  }
  for (size_t i = 0; i < crashes_.size(); ++i) {
    const TaskCrash& c = crashes_[i];
    if (!PhaseMatches(c.phase, phase) || !IntMatches(c.task, task) ||
        !IntMatches(c.attempt, attempt)) {
      continue;
    }
    if (c.probability < 1.0 &&
        UnitHash(/*tag=*/0x0c1a54ull + i, phase, task, attempt, 0) >=
            c.probability) {
      continue;
    }
    counters_->faults_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(c.message + SiteSuffix(phase, task, attempt));
  }
  if (parent_ != nullptr) return parent_->OnTaskAttempt(phase, task, attempt);
  return Status::OK();
}

double FaultPlan::TaskSlowdownSeconds(const char* phase, int task,
                                      int attempt) const {
  double total = 0;
  for (const TaskDelayHook& hook : slowdown_hooks_) {
    total += hook(phase, task, attempt);
  }
  for (const TaskSlowdown& s : slowdowns_) {
    if (PhaseMatches(s.phase, phase) && IntMatches(s.task, task) &&
        IntMatches(s.attempt, attempt)) {
      total += s.seconds;
    }
  }
  if (parent_ != nullptr) {
    total += parent_->TaskSlowdownSeconds(phase, task, attempt);
  }
  return total;
}

double FaultPlan::RecordThrottleSeconds(const char* phase, int task,
                                        int attempt) const {
  double total = 0;
  for (const RecordThrottle& t : throttles_) {
    if (PhaseMatches(t.phase, phase) && IntMatches(t.task, task) &&
        IntMatches(t.attempt, attempt)) {
      total += t.seconds_per_record;
    }
  }
  if (parent_ != nullptr) {
    total += parent_->RecordThrottleSeconds(phase, task, attempt);
  }
  return total;
}

Status FaultPlan::OnIo(const char* op, int node) const {
  const int64_t seq =
      counters_->io_ops.fetch_add(1, std::memory_order_relaxed);
  if (NodeDownAt(node, seq)) {
    counters_->faults_injected.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("injected outage: node " + std::to_string(node) +
                            " is down");
  }
  for (size_t i = 0; i < io_errors_.size(); ++i) {
    const IoError& e = io_errors_[i];
    if (!(e.op.empty() || e.op == op) || !IntMatches(e.node, node)) continue;
    bool fire = false;
    if (e.every_nth > 0) {
      const int64_t n =
          counters_->nth[io_error_nth_slots_[i]]->fetch_add(
              1, std::memory_order_relaxed) +
          1;
      fire = (n % e.every_nth) == 0;
    }
    if (!fire && e.probability > 0) {
      fire = UnitHash(/*tag=*/0x10e44ull + i, op, node, seq, 0) <
             e.probability;
    }
    if (fire) {
      counters_->faults_injected.fetch_add(1, std::memory_order_relaxed);
      return Status::Internal(e.message + " (op=" + op +
                              " node=" + std::to_string(node) + ")");
    }
  }
  if (parent_ != nullptr) return parent_->OnIo(op, node);
  return Status::OK();
}

bool FaultPlan::NodeDown(int node) const {
  if (NodeDownAt(node, counters_->io_ops.load(std::memory_order_relaxed))) {
    return true;
  }
  return parent_ != nullptr && parent_->NodeDown(node);
}

bool FaultPlan::NodeDownAt(int node, int64_t io_op) const {
  for (const NodeOutage& o : outages_) {
    if (IntMatches(o.node, node) && io_op >= o.from_io_op &&
        io_op < o.to_io_op) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::ShouldCorruptBlock(std::string_view file, int block,
                                   int node) const {
  for (size_t i = 0; i < corruptions_.size(); ++i) {
    const BlockCorruption& c = corruptions_[i];
    bool fire = false;
    if (c.every_nth > 0) {
      const int64_t n =
          counters_->nth[corruption_nth_slots_[i]]->fetch_add(
              1, std::memory_order_relaxed) +
          1;
      fire = (n % c.every_nth) == 0;
    }
    if (!fire && c.probability > 0) {
      fire = UnitHash(/*tag=*/0xc0445ull + i, file, block, node, 0) <
             c.probability;
    }
    if (fire) {
      counters_->faults_injected.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return parent_ != nullptr && parent_->ShouldCorruptBlock(file, block, node);
}

bool FaultPlan::armed() const {
  const bool own = !crashes_.empty() || !slowdowns_.empty() ||
                   !throttles_.empty() || !io_errors_.empty() ||
                   !corruptions_.empty() || !outages_.empty() ||
                   !crash_hooks_.empty() || !slowdown_hooks_.empty();
  return own || (parent_ != nullptr && parent_->armed());
}

int64_t FaultPlan::faults_injected() const {
  return counters_->faults_injected.load(std::memory_order_relaxed);
}

int64_t FaultPlan::io_ops() const {
  return counters_->io_ops.load(std::memory_order_relaxed);
}

// ---- Parsing --------------------------------------------------------------

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

Status ParseDouble(const std::string& clause, const std::string& token,
                   double* out) {
  try {
    size_t used = 0;
    *out = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    return Status::InvalidArgument("fault plan: bad number '" + token +
                                   "' in clause '" + clause + "'");
  }
  return Status::OK();
}

Status ParseInt(const std::string& clause, const std::string& token,
                int64_t* out) {
  try {
    size_t used = 0;
    *out = std::stoll(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    return Status::InvalidArgument("fault plan: bad integer '" + token +
                                   "' in clause '" + clause + "'");
  }
  return Status::OK();
}

/// Parses "map" | "reduce" | "*" into a spec phase filter.
Status ParsePhase(const std::string& clause, const std::string& token,
                  std::string* out) {
  if (token == "*") {
    out->clear();
    return Status::OK();
  }
  if (token == "map" || token == "reduce") {
    *out = token;
    return Status::OK();
  }
  return Status::InvalidArgument("fault plan: bad phase '" + token +
                                 "' in clause '" + clause +
                                 "' (want map|reduce|*)");
}

/// Parses a probability in [0, 1] (NaN is rejected too).
Status ParseProbability(const std::string& clause, const std::string& token,
                        double* out) {
  CASM_RETURN_IF_ERROR(ParseDouble(clause, token, out));
  if (!(*out >= 0 && *out <= 1)) {
    return Status::InvalidArgument("fault plan: probability '" + token +
                                   "' outside [0,1] in clause '" + clause +
                                   "'");
  }
  return Status::OK();
}

/// Parses a non-negative delay: matching delays are summed, so a negative
/// one would silently cancel another spec's.
Status ParseSeconds(const std::string& clause, const std::string& token,
                    double* out) {
  CASM_RETURN_IF_ERROR(ParseDouble(clause, token, out));
  if (!(*out >= 0)) {
    return Status::InvalidArgument("fault plan: negative delay '" + token +
                                   "' in clause '" + clause + "'");
  }
  return Status::OK();
}

/// Parses an integer field that admits "*" for "any" (-1).
Status ParseAnyInt(const std::string& clause, const std::string& token,
                   int* out) {
  if (token == "*") {
    *out = -1;
    return Status::OK();
  }
  int64_t v = 0;
  CASM_RETURN_IF_ERROR(ParseInt(clause, token, &v));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("fault plan: '" + token +
                                   "' is out of int range in clause '" +
                                   clause + "'");
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  uint64_t seed = 0;
  bool seed_set = false;
  std::vector<std::string> clauses = SplitOn(text, ';');
  for (const std::string& raw : clauses) {
    const std::string clause = Trim(raw);
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault plan: clause '" + clause +
                                     "' is not key=value");
    }
    const std::string key = Trim(clause.substr(0, eq));
    std::vector<std::string> args = SplitOn(Trim(clause.substr(eq + 1)), ':');
    for (std::string& a : args) a = Trim(a);

    if (key == "seed") {
      int64_t v = 0;
      if (args.size() != 1) {
        return Status::InvalidArgument("fault plan: seed wants one value");
      }
      CASM_RETURN_IF_ERROR(ParseInt(clause, args[0], &v));
      seed = static_cast<uint64_t>(v);
      seed_set = true;
    } else if (key == "node_down") {
      if (args.size() != 1 && args.size() != 3) {
        return Status::InvalidArgument(
            "fault plan: node_down wants NODE or NODE:FROM:TO in '" + clause +
            "'");
      }
      NodeOutage o;
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[0], &o.node));
      if (args.size() == 3) {
        CASM_RETURN_IF_ERROR(ParseInt(clause, args[1], &o.from_io_op));
        CASM_RETURN_IF_ERROR(ParseInt(clause, args[2], &o.to_io_op));
        if (o.from_io_op >= o.to_io_op) {
          return Status::InvalidArgument(
              "fault plan: node_down wants FROM < TO in '" + clause + "'");
        }
      }
      plan.Add(o);
    } else if (key == "io_error" || key == "io_error_nth") {
      if (args.empty() || args.size() > 3) {
        return Status::InvalidArgument("fault plan: " + key +
                                       " wants VALUE[:OP[:NODE]] in '" +
                                       clause + "'");
      }
      IoError e;
      if (key == "io_error") {
        CASM_RETURN_IF_ERROR(ParseProbability(clause, args[0], &e.probability));
      } else {
        CASM_RETURN_IF_ERROR(ParseInt(clause, args[0], &e.every_nth));
        if (e.every_nth <= 0) {
          return Status::InvalidArgument(
              "fault plan: io_error_nth wants N >= 1 in '" + clause + "'");
        }
      }
      if (args.size() >= 2 && args[1] != "*") {
        if (args[1] != "read" && args[1] != "write") {
          return Status::InvalidArgument("fault plan: bad op '" + args[1] +
                                         "' in '" + clause +
                                         "' (want read|write|*)");
        }
        e.op = args[1];
      }
      if (args.size() == 3) {
        CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[2], &e.node));
      }
      plan.Add(std::move(e));
    } else if (key == "block_corrupt" || key == "block_corrupt_nth") {
      if (args.size() != 1) {
        return Status::InvalidArgument("fault plan: " + key +
                                       " wants one value");
      }
      BlockCorruption c;
      if (key == "block_corrupt") {
        CASM_RETURN_IF_ERROR(ParseProbability(clause, args[0], &c.probability));
      } else {
        CASM_RETURN_IF_ERROR(ParseInt(clause, args[0], &c.every_nth));
        if (c.every_nth <= 0) {
          return Status::InvalidArgument(
              "fault plan: block_corrupt_nth wants N >= 1 in '" + clause +
              "'");
        }
      }
      plan.Add(c);
    } else if (key == "task_crash") {
      if (args.size() != 3 && args.size() != 4) {
        return Status::InvalidArgument(
            "fault plan: task_crash wants PHASE:TASK:ATTEMPT[:P] in '" +
            clause + "'");
      }
      TaskCrash c;
      CASM_RETURN_IF_ERROR(ParsePhase(clause, args[0], &c.phase));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[1], &c.task));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[2], &c.attempt));
      if (args.size() == 4) {
        CASM_RETURN_IF_ERROR(ParseProbability(clause, args[3], &c.probability));
      }
      plan.Add(std::move(c));
    } else if (key == "slow_task") {
      if (args.size() != 4) {
        return Status::InvalidArgument(
            "fault plan: slow_task wants PHASE:TASK:ATTEMPT:SECONDS in '" +
            clause + "'");
      }
      TaskSlowdown s;
      CASM_RETURN_IF_ERROR(ParsePhase(clause, args[0], &s.phase));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[1], &s.task));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[2], &s.attempt));
      CASM_RETURN_IF_ERROR(ParseSeconds(clause, args[3], &s.seconds));
      plan.Add(std::move(s));
    } else if (key == "throttle") {
      if (args.size() != 4) {
        return Status::InvalidArgument(
            "fault plan: throttle wants PHASE:TASK:ATTEMPT:SECONDS in '" +
            clause + "'");
      }
      RecordThrottle t;
      CASM_RETURN_IF_ERROR(ParsePhase(clause, args[0], &t.phase));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[1], &t.task));
      CASM_RETURN_IF_ERROR(ParseAnyInt(clause, args[2], &t.attempt));
      CASM_RETURN_IF_ERROR(
          ParseSeconds(clause, args[3], &t.seconds_per_record));
      plan.Add(std::move(t));
    } else {
      return Status::InvalidArgument("fault plan: unknown clause key '" +
                                     key + "'");
    }
  }
  if (seed_set) plan.seed_ = seed;
  return plan;
}

const FaultPlan* FaultPlan::FromEnv() {
  static const FaultPlan* plan = []() -> const FaultPlan* {
    const char* env = std::getenv("CASM_FAULT_PLAN");
    if (env == nullptr || *env == '\0') return nullptr;
    Result<FaultPlan> parsed = Parse(env);
    CASM_CHECK(parsed.ok()) << "CASM_FAULT_PLAN: "
                            << parsed.status().ToString();
    return new FaultPlan(std::move(parsed).value());
  }();
  return plan;
}

}  // namespace casm
