// Span recorder of the traced benchmark run. The benchmark wraps every call
// it makes into a layer (Execute, Pin, VerifyPageChecksum, IntersectsAll,
// Refresh, ...) in a span: a name, a start, an end, the enclosing span and
// the request (query or write index) it belongs to. Every span feeds a
// per-name aggregate (calls, time, work items); the spans the per-layer
// metrics use are leaves, so their time is their self time. The full
// records of a bounded sample of requests stay in memory and are written
// out when the run ends.
//
// One Tracer per thread; aggregates are merged after the threads join. A
// disabled Tracer records nothing and reads no clock.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum SpanName : uint8_t {
  kSpanRequest,       // one query or write, root of its spans
  kSpanExecute,       // SpatialEngine::Execute
  kSpanTraverse,      // the tree's own query call, one layer below Execute
  kSpanReplay,        // the benchmark's replay of the traversal
  kSpanPinSnapshot,   // SpatialEngine::PinSnapshot
  kSpanPinHit,        // BufferPool::Pin that found the frame resident
  kSpanPinMiss,       // BufferPool::Pin that read the page
  kSpanUnpin,         // BufferPool::Unpin
  kSpanCopyHit,       // BufferPool::ReadPageCopy served from a frame
  kSpanCopyMiss,      // BufferPool::ReadPageCopy that read the page
  kSpanFindPage,      // EpochManager::FindPage (pinned reads)
  kSpanFindClips,     // EpochManager::FindClips (pinned reads)
  kSpanReadPage,      // PageFile::ReadPage
  kSpanVerify,        // VerifyPageChecksum
  kSpanDecode,        // DecodeNodePage
  kSpanIntersectsAll, // IntersectsAll over one node
  kSpanMinDist,       // SoaMinDist2 / CbbMinDist2 over one node's entries
  kSpanClipsPrune,    // ClipsPruneQuery for one child
  kSpanInsert,        // PagedRTree::Insert
  kSpanDelete,        // PagedRTree::Delete
  kSpanCheckpoint,    // PagedRTree::Checkpoint
  kSpanRefresh,       // PagedRTree::Refresh
  kNumSpanNames,
};

inline const char* SpanNameStr(SpanName n) {
  static const char* const kNames[kNumSpanNames] = {
      "request",        "Execute",     "Traverse",       "Replay",
      "PinSnapshot",    "Pin.hit",     "Pin.miss",       "Unpin",
      "ReadPageCopy.hit", "ReadPageCopy.miss", "FindPage", "FindClips",
      "ReadPage",
      "VerifyPageChecksum", "DecodeNodePage", "IntersectsAll", "MinDist",
      "ClipsPruneQuery", "Insert",     "Delete",         "Checkpoint",
      "Refresh"};
  return kNames[n];
}

struct SpanAgg {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  /// Units of work under the span (entries scanned, for the kernels).
  uint64_t items = 0;

  SpanAgg& operator+=(const SpanAgg& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    items += o.items;
    return *this;
  }
};

struct SpanRecord {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t request = 0;
  int32_t parent = -1;
  uint8_t name = 0;
  uint8_t thread = 0;
};

using SpanAggs = std::array<SpanAgg, kNumSpanNames>;

class Tracer {
 public:
  Tracer(bool enabled, uint8_t thread, size_t keep_limit)
      : enabled_(enabled), thread_(thread), keep_limit_(keep_limit) {}

  bool enabled() const { return enabled_; }

  /// Starts a request; its full span records are kept when `keep` and the
  /// per-thread record budget allows.
  void BeginRequest(uint64_t request, bool keep) {
    request_ = request;
    keep_ = keep && records_.size() < keep_limit_;
  }

  void Begin(SpanName name) {
    if (!enabled_) return;
    Frame f;
    f.name = name;
    if (keep_) {
      f.record = static_cast<int32_t>(records_.size());
      SpanRecord r;
      r.request = request_;
      r.name = name;
      r.thread = thread_;
      r.parent = stack_.empty() ? -1 : stack_.back().record;
      records_.push_back(r);
    }
    stack_.push_back(f);
    stack_.back().start = NowNs();
  }

  /// Ends the innermost span; `rename` reclassifies it once the outcome
  /// is known (a pin that turned out to miss). `items` counts the work
  /// units the span covered. Returns the span's duration.
  uint64_t End(SpanName rename = kNumSpanNames, uint64_t items = 0) {
    if (!enabled_) return 0;
    const uint64_t end = NowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const SpanName name = rename == kNumSpanNames ? f.name : rename;
    const uint64_t dur = end - f.start;
    SpanAgg& a = aggs_[name];
    ++a.calls;
    a.total_ns += dur;
    a.items += items;
    if (f.record >= 0) {
      SpanRecord& r = records_[static_cast<size_t>(f.record)];
      r.start = f.start;
      r.end = end;
      r.name = name;
    }
    return dur;
  }

  const SpanAggs& aggs() const { return aggs_; }
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  struct Frame {
    uint64_t start = 0;
    int32_t record = -1;
    SpanName name = kSpanRequest;
  };

  bool enabled_;
  uint8_t thread_;
  size_t keep_limit_;
  uint64_t request_ = 0;
  bool keep_ = false;
  std::vector<Frame> stack_;
  SpanAggs aggs_{};
  std::vector<SpanRecord> records_;
};

/// Mean duration of an empty span on this machine: what the clock reads
/// and the bookkeeping add to every leaf span, subtracted from the
/// per-call kernel times so a 10 ns kernel is not reported as 30 ns.
inline double CalibrateSpanCost() {
  Tracer t(true, 0, 0);
  constexpr int kReps = 20000;
  for (int i = 0; i < kReps; ++i) {
    t.Begin(kSpanIntersectsAll);
    t.End();
  }
  const SpanAgg& a = t.aggs()[kSpanIntersectsAll];
  return static_cast<double>(a.total_ns) / static_cast<double>(a.calls);
}

/// Writes kept span records as Chrome trace-event JSON ("X" events, one
/// per span; ids in args). Returns false on I/O failure.
inline bool WriteSpans(const char* path,
                       const std::vector<SpanRecord>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const SpanRecord& r : records) t0 = std::min(t0, r.start);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":%d}}",
                 i ? ",\n" : "", SpanNameStr(static_cast<SpanName>(r.name)),
                 static_cast<unsigned>(r.thread), (r.start - t0) / 1e3,
                 (r.end - r.start) / 1e3,
                 static_cast<unsigned long long>(r.request), r.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
