// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "obs/event.h"

namespace casm {
namespace {

/// Per-thread buffer cap: bounds a runaway instrumentation loop at
/// ~tens of MB per thread; overflow increments `dropped` instead of
/// growing without bound.
constexpr size_t kMaxEventsPerThread = 1 << 20;

/// Small stable per-thread ordinal (Chrome traces index rows by tid;
/// std::thread::id hashes make unreadable row labels).
uint64_t ThisThreadOrdinal() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t ordinal = next.fetch_add(1);
  return ordinal;
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendNumber(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  *out += buf;
}

}  // namespace

const char* TraceOutcomeName(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kNone:
      return "none";
    case TraceOutcome::kOk:
      return "ok";
    case TraceOutcome::kFailed:
      return "failed";
    case TraceOutcome::kRetried:
      return "retried";
    case TraceOutcome::kSpeculativeWin:
      return "speculative-win";
    case TraceOutcome::kCancelled:
      return "cancelled";
  }
  return "none";
}

struct TraceRecorder::ThreadBuffer {
  /// Only a drain (Snapshot / Clear / dropped_events) ever contends this
  /// mutex; the owning thread's appends are otherwise uncontended.
  std::mutex mu;
  uint64_t thread_id = 0;
  int64_t dropped = 0;
  std::vector<TraceEvent> events;
};

namespace {

/// Thread-local cache of (recorder id -> buffer), so recording is a
/// pointer compare on the fast path. Recorder ids are process-unique and
/// never reused, so a stale slot from a destroyed recorder can never
/// alias a new one.
struct ThreadSlot {
  uint64_t recorder_id = 0;
  TraceRecorder::ThreadBuffer* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      recorder_id_(NextRecorderId()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  if (tls_slot.recorder_id == recorder_id_) return tls_slot.buffer;
  const uint64_t tid = ThisThreadOrdinal();
  std::unique_lock<std::mutex> lock(registry_mu_);
  // A thread that alternates between recorders re-registers on each
  // switch; reuse its existing buffer rather than growing the registry.
  ThreadBuffer* buf = nullptr;
  for (const std::unique_ptr<ThreadBuffer>& b : buffers_) {
    if (b->thread_id == tid) {
      buf = b.get();
      break;
    }
  }
  if (buf == nullptr) {
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buf = buffers_.back().get();
    buf->thread_id = tid;
  }
  tls_slot = ThreadSlot{recorder_id_, buf};
  return buf;
}

void TraceRecorder::Record(TraceEvent event) {
  if (!enabled()) return;
  ThreadBuffer* buf = BufferForThisThread();
  std::unique_lock<std::mutex> lock(buf->mu);
  if (buf->events.size() >= kMaxEventsPerThread) {
    ++buf->dropped;
    return;
  }
  if (event.thread_id == 0) event.thread_id = buf->thread_id;
  buf->events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::unique_lock<std::mutex> registry_lock(registry_mu_);
    for (const std::unique_ptr<ThreadBuffer>& buf : buffers_) {
      std::unique_lock<std::mutex> lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_seconds < b.start_seconds;
                   });
  return out;
}

int64_t TraceRecorder::dropped_events() const {
  int64_t dropped = 0;
  std::unique_lock<std::mutex> registry_lock(registry_mu_);
  for (const std::unique_ptr<ThreadBuffer>& buf : buffers_) {
    std::unique_lock<std::mutex> lock(buf->mu);
    dropped += buf->dropped;
  }
  return dropped;
}

void TraceRecorder::Clear() {
  std::unique_lock<std::mutex> registry_lock(registry_mu_);
  for (const std::unique_ptr<ThreadBuffer>& buf : buffers_) {
    std::unique_lock<std::mutex> lock(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events) {
  // Chrome trace-event format, JSON-object flavor: complete events
  // (ph "X", microsecond ts/dur) for spans, thread-scoped instants
  // (ph "i") for point events. Loads in chrome://tracing and Perfetto.
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    AppendJsonEscaped(ev.name, &out);
    out += "\", \"cat\": \"";
    AppendJsonEscaped(ev.category, &out);
    out += ev.instant ? "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": "
                      : "\", \"ph\": \"X\", \"ts\": ";
    AppendNumber(ev.start_seconds * 1e6, &out);
    if (!ev.instant) {
      out += ", \"dur\": ";
      AppendNumber(ev.duration_seconds * 1e6, &out);
    }
    out += ", \"pid\": 1, \"tid\": " + std::to_string(ev.thread_id);
    out += ", \"args\": {";
    bool first_arg = true;
    auto arg = [&](const char* key, const std::string& value, bool quote) {
      out += first_arg ? "" : ", ";
      first_arg = false;
      out += std::string("\"") + key + "\": ";
      if (quote) {
        out += "\"";
        AppendJsonEscaped(value, &out);
        out += "\"";
      } else {
        out += value;
      }
    };
    if (ev.task >= 0) arg("task", std::to_string(ev.task), false);
    if (ev.attempt > 0) arg("attempt", std::to_string(ev.attempt), false);
    if (ev.job >= 0) arg("job", std::to_string(ev.job), false);
    if (ev.outcome != TraceOutcome::kNone) {
      arg("outcome", TraceOutcomeName(ev.outcome), true);
    }
    const std::string detail =
        ev.kind == obs::Kind::kRaw
            ? ev.detail
            : obs::RenderDetail(ev.kind, ev.payload, ev.outcome, ev.detail);
    if (!detail.empty()) arg("detail", detail, true);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string TraceRecorder::ToChromeJson() const {
  return TraceEventsToChromeJson(Snapshot());
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  const std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

namespace {

void WriteGlobalTraceAtExit() {
  const char* path = std::getenv("CASM_TRACE");
  if (path == nullptr || *path == '\0') return;
  TraceRecorder* recorder = TraceRecorder::Global();
  Status s = recorder->WriteJson(path);
  if (s.ok()) {
    CASM_LOG(INFO) << "casm: wrote trace to " << path;
  } else {
    CASM_LOG(ERROR) << "casm: " << s.ToString();
  }
}

}  // namespace

TraceRecorder* TraceRecorder::Global() {
  // Leaked on purpose: worker threads may record during static
  // destruction of other objects; the atexit writer runs while the
  // recorder is still valid.
  static TraceRecorder* const global = [] {
    auto* recorder = new TraceRecorder();
    const char* path = std::getenv("CASM_TRACE");
    if (path != nullptr && *path != '\0') {
      recorder->set_enabled(true);
      std::atexit(WriteGlobalTraceAtExit);
    }
    return recorder;
  }();
  return global;
}

}  // namespace casm
