// The repository benchmark: three deployable configurations of the clipped
// R-tree on the paper's par02 dataset at its paper cardinality (1.05 M
// objects, CSTA-clipped Hilbert R-tree), each driven by closed-loop
// clients through SpatialEngine::Execute.
//
//   mem_read    in-memory RTree, 4 clients, stream in Hilbert order:
//               traversal, kernels, clip test.
//   paged_cold  read-only PagedRTree, pool of NumNodes()/10 frames in 4
//               shards, 4 unpinned clients: the miss path (OS-cached
//               pread, checksum verify, decode) beside the pool's hit path.
//   follow_rw   one process: a kReadWrite writer (inserts of held-out
//               objects alternating with deletes, commit_every 32,
//               periodic checkpoints), a refresher calling Refresh() on a
//               kFollow open, and 2 pinned reader clients on the follower.
//
// Usage:
//   clipbb_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--objects <n>] [--out <dir>]
//                    [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics with no spans; --trace 1 runs
// the same workload with spans around every call into a layer and a replay
// of each query's traversal through the layers' public functions, and
// reports the per-layer metrics. Every run checks every answer against a
// reference (see README.md) and exits 1 on any wrong answer, any failed
// replay parity check, or any unexpected error Status. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/clip_builder.h"
#include "core/mindist.h"
#include "geom/hilbert.h"
#include "replay.h"
#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "spans.h"
#include "util/rng.h"
#include "workload/dataset.h"
#include "workload/query.h"

namespace perfbench {
namespace {

using clipbb::Rng;
using clipbb::rtree::Entry;
using clipbb::rtree::KnnNeighbor;
using clipbb::rtree::QueryKind;
using clipbb::rtree::TraversalScratch;
using Spec = clipbb::rtree::QuerySpec<kDim>;
using Engine = clipbb::rtree::SpatialEngine<kDim>;
using EngineSnap = clipbb::rtree::EngineSnapshot<kDim>;
using MemTree = clipbb::rtree::RTree<kDim>;
using Paged = clipbb::rtree::PagedRTree<kDim>;
using Snap = clipbb::rtree::Snapshot<kDim>;

/// par02 at the paper's cardinality (§V-B).
constexpr size_t kPaperObjects = 1'050'000;
/// Query stream length; clients cycle through it.
constexpr size_t kStreamLength = 24'000;
constexpr int kKnnK = 10;
/// Clients of the read workloads, capped at nproc.
constexpr unsigned kReadClients = 4;
constexpr unsigned kPoolShards = 4;
/// follow_rw: reader clients, group commit, checkpoint cadence.
constexpr unsigned kFollowReaders = 2;
constexpr size_t kCommitEvery = 32;
/// The writer is open-loop at a fixed rate, so every run and seed gives
/// the follower the same stream of work, at a rate the follower can
/// apply: unpaced (about 2,800 writes/s) the follower fell seconds behind
/// and applied whole backlogs in one Refresh(). A checkpoint every 512
/// writes repeats the pattern every 2 s, two reader time slices, and
/// leaves a rebase (a full scan of the page file) time to
/// finish before the next checkpoint rewrites the file under it.
constexpr uint64_t kWriteRate = 256;  // writes per second
constexpr uint64_t kCheckpointEvery = 512;
/// The refresher waits this long after a Refresh() that found nothing new
/// (OpenOptions::follow_poll_ms = 1 in a deployed follower), instead of
/// spinning on the log and superblock beside the readers.
constexpr auto kRefreshPollInterval = std::chrono::milliseconds(1);
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Queries whose reference answer is re-derived by linear scan.
constexpr size_t kBruteChecks = 48;
/// Follower check set: queries per query kind after the writer stops.
constexpr int kCheckPerKind = 40;
/// Span records kept per thread (every kKeepEvery-th request).
constexpr size_t kKeepSpans = 20'000;
constexpr uint64_t kKeepEvery = 64;
/// A measured phase is cut into time slices of about this length;
/// throughput and latency percentiles are taken per slice and their median
/// reported, so bursts of outside load in a few slices do not move the
/// result.
constexpr double kSliceSeconds = 1.0;

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds));
}

enum class Workload { kMemRead, kPagedCold, kFollowRw };

struct Args {
  std::string workload_name;
  Workload workload = Workload::kMemRead;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t objects = kPaperObjects;
  std::string out_dir = ".bench_build/perfbench";
  bool corrupt_reference = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: clipbb_perfbench --workload "
               "mem_read|paged_cold|follow_rw --seed N "
               "--seconds S --trace 0|1 [--objects N] [--out DIR] "
               "[--corrupt-reference]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload_name = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--objects") {
      a.objects = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--out") {
      a.out_dir = value();
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.workload_name == "mem_read") {
    a.workload = Workload::kMemRead;
  } else if (a.workload_name == "paged_cold") {
    a.workload = Workload::kPagedCold;
  } else if (a.workload_name == "follow_rw") {
    a.workload = Workload::kFollowRw;
  } else {
    Usage(("unknown workload " + a.workload_name).c_str());
  }
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  if (a.objects < 1000) Usage("--objects must be at least 1000");
  return a;
}

// ------------------------------------------------------------- results

/// Failure accounting shared by every phase: a wrong answer or an
/// unexpected Status makes the run incorrect; the first one is reported.
class Verdict {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok_) first_ = what;
    ok_ = false;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  bool ok_ = true;
  std::string first_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled statistic
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints every metric on its own line, then the JSON result line with
  /// the metrics named in `json_names`.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::printf("metric %-40s %16.6f %-8s (n=%llu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
      } else {
        std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!json_.empty() &&
          std::find(json_.begin(), json_.end(), m.name) == json_.end()) {
        continue;
      }
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  void SetJsonNames(std::vector<std::string> names) {
    json_ = std::move(names);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> json_;
};

double Percentile(std::vector<uint32_t> v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------------- set-up

/// One set-up: data, tree, clip points, SoA mirror; for the paged
/// workloads also the serialized file and the open(s).
struct System {
  clipbb::workload::Dataset2 data;
  std::vector<Entry<kDim>> held_out;  // follow_rw inserts
  std::unique_ptr<MemTree> tree;
  std::string path;
  std::unique_ptr<Paged> paged;   // read-only open, or the follower
  std::unique_ptr<Paged> writer;  // follow_rw only
};

clipbb::workload::Dataset2 MakeData(size_t n, std::vector<Entry<kDim>>* held,
                                    size_t held_n) {
  clipbb::workload::Dataset2 data = clipbb::workload::MakePar02(n);
  if (held_n > 0) {
    // Same distribution, independent draws, ids after the loaded ones.
    clipbb::workload::Dataset2 extra =
        clipbb::workload::MakePar02(n, /*seed=*/1002);
    held->assign(extra.items.begin(),
                 extra.items.begin() +
                     static_cast<ptrdiff_t>(std::min(held_n, n)));
    for (size_t i = 0; i < held->size(); ++i) {
      (*held)[i].id = static_cast<ObjectId>(n + i);
    }
  }
  return data;
}

bool OpenPaged(const Args& args, System* s) {
  Paged::OpenOptions o;
  o.pool_shards = kPoolShards;
  // File pages the tree occupies after page 0 (the superblock): node pages
  // plus clip-spill pages.
  const uint64_t section_pages =
      std::filesystem::file_size(s->path) /
          clipbb::rtree::SerializedPageSize<kDim>(*s->tree) -
      1;
  if (args.workload == Workload::kPagedCold) {
    // Node pages are what queries read; clip-spill pages never are (the
    // clip table is memory-resident), so the cold budget is a tenth of
    // the node pages, not of the section pages.
    o.pool_pages = std::max<size_t>(16, s->tree->NumNodes() / 10);
  } else {
    // Every page fits, with room for shard imbalance and a run's growth.
    o.pool_pages = 2 * section_pages + 64;
  }
  if (args.workload == Workload::kFollowRw) {
    Paged::OpenOptions w;
    w.mode = Paged::OpenMode::kReadWrite;
    w.commit_every = kCommitEvery;
    w.pool_pages = o.pool_pages;
    s->writer = std::make_unique<Paged>();
    if (!s->writer->Open(s->path, w,
                         clipbb::rtree::MakeRTree<kDim>(
                             clipbb::rtree::Variant::kHilbert,
                             s->data.domain))) {
      return false;
    }
    o.mode = Paged::OpenMode::kFollow;
  }
  s->paged = std::make_unique<Paged>();
  return s->paged->Open(s->path, o);
}

std::unique_ptr<System> SetUp(const Args& args, size_t held_n,
                              Verdict* verdict) {
  auto s = std::make_unique<System>();
  s->data = MakeData(args.objects, &s->held_out, held_n);
  s->tree = clipbb::rtree::BuildTree<kDim>(clipbb::rtree::Variant::kHilbert,
                                           s->data.items, s->data.domain);
  s->tree->EnableClipping(clipbb::core::ClipConfig<kDim>::Sta());
  if (!s->tree->AccelFresh()) s->tree->RefreshAccel();
  if (args.workload == Workload::kMemRead) return s;
  s->path = args.out_dir + "/" + args.workload_name + ".ctree";
  if (!clipbb::rtree::WritePagedTree<kDim>(*s->tree, s->path)) {
    verdict->Fail("cannot write " + s->path);
    return nullptr;
  }
  if (!OpenPaged(args, s.get())) {
    verdict->Fail("cannot open " + s->path);
    return nullptr;
  }
  return s;
}

/// Sets up kSetupReps times, timing each; keeps the last system.
std::unique_ptr<System> SetUpRepeated(const Args& args, size_t held_n,
                                      std::vector<double>* seconds,
                                      Verdict* verdict) {
  std::unique_ptr<System> sys;
  for (int r = 0; r < kSetupReps; ++r) {
    sys.reset();
    const uint64_t t0 = NowNs();
    sys = SetUp(args, held_n, verdict);
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!sys) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   verdict->first().c_str());
      break;
    }
  }
  return sys;
}

/// Flushes the freshly written tree file to the device, so the kernel's
/// background write-back of it does not stall the measured reads.
void SyncFile(const std::string& path, Verdict* verdict) {
  if (path.empty()) return;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fdatasync(fd) != 0) verdict->Fail("cannot sync " + path);
  if (fd >= 0) ::close(fd);
}

/// Closes the opens and deletes the tree file and its log.
void RemoveTreeFiles(std::unique_ptr<System> s) {
  const std::string path = s->path;
  s.reset();
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(clipbb::rtree::WalPathFor(path), ec);
}

// ---------------------------------------------------------------- stream

struct Stream {
  std::vector<Spec> specs;
  /// Reference answer per spec: result count, and the id list for kNN.
  std::vector<uint32_t> counts;
  std::vector<std::vector<ObjectId>> knn_ids;
};

/// kDrawn keeps the queries in the order they were drawn, so successive
/// queries land anywhere. kHilbert sorts them by the Hilbert index of their
/// centers, so successive queries are neighbours, as from a client sweeping
/// a map; the nodes they touch then stay in the CPU caches.
enum class StreamOrder { kDrawn, kHilbert };

/// 90 % intersects windows drawn equally from QR0/QR1/QR2, 10 % 10-NN
/// queries at the dithered object centers the windows use.
Stream MakeStream(const clipbb::workload::Dataset2& data, uint64_t seed,
                  StreamOrder order) {
  const size_t per_profile = kStreamLength / 3 + 1;
  // The three profiles calibrate independently; build them in parallel.
  std::vector<std::vector<Rect>> profiles(3);
  {
    std::vector<std::thread> makers;
    for (int p = 0; p < 3; ++p) {
      makers.emplace_back([&, p] {
        // The extent is calibrated once per profile with a fixed seed, so
        // every run seed draws windows of the same size and work per query
        // does not swing with the calibration's sampling noise.
        profiles[p].reserve(per_profile);
        const double f = clipbb::workload::CalibrateExtent<kDim>(
            data, clipbb::workload::kQueryTargets[p]);
        Rng rng(seed * 7 + static_cast<uint64_t>(p));
        for (size_t i = 0; i < per_profile; ++i) {
          profiles[p].push_back(
              clipbb::workload::query_internal::QueryAt<kDim>(
                  clipbb::workload::query_internal::DitheredCenter<kDim>(
                      data, rng),
                  data.domain, f));
        }
      });
    }
    for (auto& th : makers) th.join();
  }
  Stream s;
  Rng rng(seed ^ 0x5ca1ab1eULL);
  size_t next[3] = {0, 0, 0};
  for (size_t i = 0; i < kStreamLength; ++i) {
    const int p = static_cast<int>(rng.Below(3));
    const Rect& w = profiles[p][next[p]++ % per_profile];
    if (rng.Below(10) == 0) {
      s.specs.push_back(Spec::Knn(w.Center(), kKnnK));
    } else {
      s.specs.push_back(Spec::Intersects(w));
    }
  }
  if (order == StreamOrder::kHilbert) {
    std::vector<std::pair<uint64_t, size_t>> keys(s.specs.size());
    for (size_t i = 0; i < s.specs.size(); ++i) {
      const Spec& q = s.specs[i];
      keys[i] = {clipbb::geom::HilbertIndex<kDim>(
                     q.kind == QueryKind::kKnn ? q.point : q.window.Center(),
                     data.domain, clipbb::geom::DefaultHilbertBits<kDim>()),
                 i};
    }
    std::sort(keys.begin(), keys.end());
    std::vector<Spec> sorted;
    sorted.reserve(keys.size());
    for (const auto& k : keys) sorted.push_back(s.specs[k.second]);
    s.specs = std::move(sorted);
  }
  return s;
}

void ForEachParallel(size_t n, unsigned threads,
                     const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// Reference answers from the in-memory tree's own calls (not through the
/// engine), with a sample re-derived by linear scan over the objects.
void ComputeReference(const MemTree& tree,
                      const std::vector<Entry<kDim>>& objects,
                      unsigned threads, Stream* s, Verdict* verdict) {
  const size_t n = s->specs.size();
  s->counts.assign(n, 0);
  s->knn_ids.assign(n, {});
  std::vector<std::vector<double>> dists(n);
  ForEachParallel(n, threads, [&](size_t i) {
    const Spec& q = s->specs[i];
    if (q.kind == QueryKind::kKnn) {
      clipbb::rtree::KnnSearch<kDim>(
          tree, q.point, q.k, [&](const KnnNeighbor<kDim>& nb) {
            s->knn_ids[i].push_back(nb.id);
            dists[i].push_back(nb.dist2);
          });
      s->counts[i] = static_cast<uint32_t>(s->knn_ids[i].size());
    } else {
      s->counts[i] = static_cast<uint32_t>(tree.RangeCount(q.window));
    }
  });
  const size_t stride = std::max<size_t>(1, n / kBruteChecks);
  ForEachParallel(kBruteChecks, threads, [&](size_t c) {
    const size_t i = (c * stride) % n;
    const Spec& q = s->specs[i];
    if (q.kind == QueryKind::kKnn) {
      std::vector<double> all;
      all.reserve(objects.size());
      for (const auto& e : objects) {
        all.push_back(clipbb::core::MinDist2<kDim>(q.point, e.rect));
      }
      const size_t k = std::min<size_t>(static_cast<size_t>(q.k), all.size());
      std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                        all.end());
      bool same = dists[i].size() == k;
      for (size_t j = 0; same && j < k; ++j) {
        same = std::abs(all[j] - dists[i][j]) <=
               1e-12 * std::max(1.0, std::abs(all[j]));
      }
      if (!same) verdict->Fail("reference kNN disagrees with linear scan");
    } else {
      uint32_t hits = 0;
      for (const auto& e : objects) hits += e.rect.Intersects(q.window);
      if (hits != s->counts[i]) {
        verdict->Fail("reference count disagrees with linear scan");
      }
    }
  });
}

// --------------------------------------------------------- read clients

struct ClientStats {
  explicit ClientStats(size_t slices = 1)
      : window_ns(slices), knn_ns(slices), slice_ops(slices, 0) {}

  /// Latency samples and completed queries per time slice.
  std::vector<std::vector<uint32_t>> window_ns;
  std::vector<std::vector<uint32_t>> knn_ns;
  std::vector<uint64_t> slice_ops;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t stale = 0;
  uint64_t results = 0;
  IoStats io;                // Execute's IoStats, summed
  ClipCounts clips;          // replays only
  Tracer tracer{false, 0, 0};

  void Merge(const ClientStats& o) {
    const size_t slices = std::max(slice_ops.size(), o.slice_ops.size());
    window_ns.resize(slices);
    knn_ns.resize(slices);
    slice_ops.resize(slices, 0);
    for (size_t i = 0; i < o.slice_ops.size(); ++i) {
      window_ns[i].insert(window_ns[i].end(), o.window_ns[i].begin(),
                          o.window_ns[i].end());
      knn_ns[i].insert(knn_ns[i].end(), o.knn_ns[i].begin(),
                       o.knn_ns[i].end());
      slice_ops[i] += o.slice_ops[i];
    }
    ops += o.ops;
    failed += o.failed;
    stale += o.stale;
    results += o.results;
    io += o.io;
    clips += o.clips;
  }
};

struct PhaseResult {
  ClientStats total;
  SpanAggs aggs{};
  std::vector<SpanRecord> records;
  double seconds = 0.0;
  double slice_seconds = 0.0;
  double qps() const { return Ratio(total.ops, seconds); }
};

enum class PinMode { kLatest, kPinned };

/// What a client needs to run and check queries.
struct ReadTarget {
  const Engine* engine;
  const Stream* stream;
  const MemTree* tree = nullptr;  // replay source (mem_read)
  Paged* paged = nullptr;         // replay source (paged workloads)
  std::string path;               // the paged tree's file
  bool check_reference = true;    // follow_rw has no fixed reference
  PinMode pin = PinMode::kLatest;
};

/// One closed-loop client: Execute, wait for the answer, check it, send
/// the next query. Traced, each query also runs the tree's own call (one
/// layer below Execute) and the replay, and must agree with both.
void RunClient(const ReadTarget& t, uint64_t start, uint64_t deadline,
               std::atomic<uint64_t>* next, ClientStats* cs,
               Verdict* verdict) {
  const size_t slices = cs->slice_ops.size();
  const uint64_t slice_ns = std::max<uint64_t>(1, (deadline - start) / slices);
  Tracer& tr = cs->tracer;
  TraversalScratch scratch;
  TraversalScratch replay_scratch;
  std::vector<KnnNeighbor<kDim>> knn;
  std::vector<ObjectId> replay_ids;
  std::vector<double> dist;
  std::vector<std::byte> probe_buf;
  std::vector<std::byte> page_buf;
  clipbb::storage::PageFile probe;
  if (tr.enabled() && t.paged != nullptr) {
    const uint32_t ps = t.paged->superblock().file_page_size;
    probe_buf.resize(ps);
    page_buf.resize(ps);
    if (!probe.Open(t.path, false, ps, /*read_only=*/true)) {
      verdict->Fail("cannot open probe page file");
      return;
    }
  }
  const size_t n = t.stream->specs.size();
  clipbb::rtree::KnnHeapSink<kDim> knn_sink(&knn);
  while (true) {
    const uint64_t qi = next->fetch_add(1, std::memory_order_relaxed);
    const size_t si = qi % n;
    const Spec& spec = t.stream->specs[si];
    const bool is_knn = spec.kind == QueryKind::kKnn;
    tr.BeginRequest(qi, qi % kKeepEvery == 0);
    tr.Begin(kSpanRequest);
    knn.clear();
    IoStats qio;
    Status st;
    EngineSnap snap;
    const uint64_t t0 = NowNs();
    if (t.pin == PinMode::kPinned) {
      tr.Begin(kSpanPinSnapshot);
      snap = t.engine->PinSnapshot();
      tr.End();
    }
    const EngineSnap* snap_arg = snap.valid() ? &snap : nullptr;
    const Snap* raw_snap =
        snap.valid() ? static_cast<const Snap*>(snap.raw()) : nullptr;
    // Traced: the replay runs first, so on a cold pool it is the replay
    // that takes the misses and its spans time the miss path.
    IoStats rio;
    Status rst;
    size_t rgot = 0;
    replay_ids.clear();
    if (tr.enabled()) {
      tr.Begin(kSpanReplay);
      if (t.paged == nullptr) {
        MemorySource src{t.tree};
        rgot = is_knn ? ReplayKnn(src, spec.point, spec.k, tr, &rio, &rst,
                                  &replay_ids, &dist)
                      : ReplayWindow(src, spec.window, tr, &rio, &cs->clips,
                                     &rst, &replay_scratch);
      } else if (raw_snap != nullptr) {
        SnapshotSource src{t.paged, raw_snap, &page_buf, {}, {}};
        rgot = is_knn ? ReplayKnn(src, spec.point, spec.k, tr, &rio, &rst,
                                  &replay_ids, &dist)
                      : ReplayWindow(src, spec.window, tr, &rio, &cs->clips,
                                     &rst, &replay_scratch);
      } else {
        PagedSource src{t.paged, &probe, &probe_buf, {}, false};
        rgot = is_knn ? ReplayKnn(src, spec.point, spec.k, tr, &rio, &rst,
                                  &replay_ids, &dist)
                      : ReplayWindow(src, spec.window, tr, &rio, &cs->clips,
                                     &rst, &replay_scratch);
        if (src.probe_failed) verdict->Fail("probe read/verify failed");
      }
      tr.End();
    }
    // Traced: the tree's own call runs before Execute on odd queries and
    // after it on even ones, so neither side always pays the cold caches.
    size_t direct = 0;
    IoStats direct_io;
    Status direct_st;
    auto direct_call = [&] {
      tr.Begin(kSpanTraverse);
      if (t.paged != nullptr) {
        direct = is_knn ? t.paged->Knn(spec.point, spec.k,
                                       [](const KnnNeighbor<kDim>&) {},
                                       &direct_io, &direct_st, raw_snap)
                        : t.paged->RangeCount(spec.window, &direct_io,
                                              &scratch, &direct_st,
                                              raw_snap);
      } else {
        direct = is_knn ? clipbb::rtree::KnnSearch<kDim>(
                              *t.tree, spec.point, spec.k,
                              [](const KnnNeighbor<kDim>&) {}, &direct_io)
                        : t.tree->TraverseWindowEmit<false>(
                              spec.window, clipbb::rtree::MatchAllPred{},
                              [](ObjectId) {}, &direct_io, &scratch);
      }
      tr.End();
    };
    if (tr.enabled() && (qi & 1)) direct_call();
    tr.Begin(kSpanExecute);
    const size_t got = t.engine->Execute(
        spec, is_knn ? &knn_sink : nullptr, &qio, &scratch, &st, snap_arg);
    const uint64_t t1 = NowNs();
    tr.End();
    if (tr.enabled() && !(qi & 1)) direct_call();
    const uint64_t lat = t1 - t0;
    ++cs->ops;
    cs->results += got;
    cs->io += qio;
    const size_t slice =
        std::min<size_t>(slices - 1, (t1 - std::min(t1, start)) / slice_ns);
    ++cs->slice_ops[slice];
    (is_knn ? cs->knn_ns : cs->window_ns)[slice].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(lat, UINT32_MAX)));
    if (!st.ok()) {
      ++cs->failed;
      if (st.kind == ErrorKind::kStaleSnapshot &&
          t.pin == PinMode::kPinned) {
        ++cs->stale;
      } else {
        verdict->Fail(std::string("query failed: ") + st.kind_name());
      }
    } else if (t.check_reference) {
      if (got != t.stream->counts[si]) {
        verdict->Fail("wrong result count for query " + std::to_string(si) +
                      ": got " + std::to_string(got) + ", expected " +
                      std::to_string(t.stream->counts[si]));
      } else if (is_knn) {
        const auto& want = t.stream->knn_ids[si];
        bool same = knn.size() == want.size();
        for (size_t j = 0; same && j < want.size(); ++j) {
          same = knn[j].id == want[j];
        }
        if (!same) verdict->Fail("wrong kNN ids for query " +
                                 std::to_string(si));
      }
    }
    if (tr.enabled() && st.ok()) {
      // Replay parity: the replay through the layers' public calls must
      // reproduce Execute's answer and logical I/O exactly.
      if (!direct_st.ok() && direct_st.kind != ErrorKind::kStaleSnapshot) {
        verdict->Fail("direct traversal failed");
      } else if (direct_st.ok() &&
                 (direct != got || !SameLogicalIo(direct_io, qio))) {
        verdict->Fail("direct traversal disagrees with Execute");
      }
      if (!rst.ok()) {
        if (rst.kind != ErrorKind::kStaleSnapshot) {
          verdict->Fail(std::string("replay failed: ") + rst.kind_name());
        }
      } else {
        bool same = rgot == got && SameLogicalIo(rio, qio);
        if (same && is_knn) {
          same = replay_ids.size() == knn.size();
          for (size_t j = 0; same && j < knn.size(); ++j) {
            same = replay_ids[j] == knn[j].id;
          }
        }
        if (!same) {
          verdict->Fail("replay parity: query " + std::to_string(si) +
                        " replay " + std::to_string(rgot) + " results / " +
                        std::to_string(rio.TotalAccesses()) +
                        " accesses, Execute " + std::to_string(got) + " / " +
                        std::to_string(qio.TotalAccesses()));
        }
      }
    }
    tr.End();  // request
    if (t1 >= deadline) break;
  }
}

PhaseResult RunClients(const ReadTarget& t, unsigned clients,
                       double seconds, bool traced, Verdict* verdict) {
  PhaseResult r;
  std::vector<ClientStats> per(clients, ClientStats(SliceCount(seconds)));
  for (unsigned c = 0; c < clients; ++c) {
    per[c].tracer = Tracer(traced, static_cast<uint8_t>(c), kKeepSpans);
  }
  std::atomic<uint64_t> next{0};
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back(
        [&, c] { RunClient(t, start, deadline, &next, &per[c], verdict); });
  }
  for (auto& th : threads) th.join();
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  r.slice_seconds = seconds / static_cast<double>(SliceCount(seconds));
  for (const ClientStats& cs : per) {
    r.total.Merge(cs);
    for (int i = 0; i < kNumSpanNames; ++i) r.aggs[i] += cs.tracer.aggs()[i];
    const size_t base = r.records.size();
    for (SpanRecord rec : cs.tracer.records()) {
      if (rec.parent >= 0) rec.parent += static_cast<int32_t>(base);
      r.records.push_back(rec);
    }
  }
  return r;
}

/// Batched throughput: the whole stream through ExecuteBatch (Hilbert
/// order, nproc threads), repeated for `seconds`, counts checked.
double RunBatches(const Engine& engine, const Stream& s, unsigned threads,
                  double seconds, uint64_t* attempted, Verdict* verdict) {
  clipbb::rtree::QueryBatchOptions opts;
  opts.hilbert_order = true;
  opts.threads = threads;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t done = 0;
  do {
    const clipbb::rtree::QueryBatchResult r = engine.ExecuteBatch(
        std::span<const Spec>(s.specs), opts);
    if (!r.error.ok() || !r.failed.empty()) {
      verdict->Fail("batch query failed");
    }
    for (size_t i = 0; i < s.specs.size(); ++i) {
      if (r.counts[i] != s.counts[i]) {
        verdict->Fail("wrong batch count for query " + std::to_string(i));
        break;
      }
    }
    done += s.specs.size();
  } while (NowNs() < deadline);
  *attempted += done;
  return Ratio(static_cast<double>(done),
               static_cast<double>(NowNs() - start) / 1e9);
}

// ------------------------------------------------------ per-layer math

/// Mean duration of a leaf span minus the calibrated span cost.
double LeafNs(const SpanAggs& a, SpanName n, double span_cost) {
  if (a[n].calls == 0) return 0.0;
  return std::max(0.0, static_cast<double>(a[n].total_ns) / a[n].calls -
                           span_cost);
}

/// Leaf-span time per work item (entries), span cost removed per call.
double PerItemNs(const SpanAggs& a, SpanName n, double span_cost) {
  if (a[n].items == 0) return 0.0;
  return std::max(0.0, (static_cast<double>(a[n].total_ns) -
                        span_cost * static_cast<double>(a[n].calls)) /
                           static_cast<double>(a[n].items));
}

double MeanNs(const SpanAggs& a, SpanName n) {
  return a[n].calls ? static_cast<double>(a[n].total_ns) / a[n].calls : 0.0;
}

struct PoolCounters {
  uint64_t hits = 0, misses = 0, evictions = 0, file_reads = 0;
};

PoolCounters ReadPool(Paged* p) {
  PoolCounters c;
  if (p == nullptr) return c;
  c.hits = p->pool().hits();
  c.misses = p->pool().misses();
  c.evictions = p->pool().evictions();
  c.file_reads = p->file().reads();
  return c;
}

/// The per-layer names, in BENCHMARK.json order. A metric whose layer the
/// workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"query_api.execute_self_ns", "ns"},
      {"rtree.internal_accesses_per_query", "count"},
      {"rtree.leaf_accesses_per_query", "count"},
      {"rtree.clip_tests_per_query", "count"},
      {"rtree.results_per_query", "count"},
      {"rtree.useful_leaf_ratio", "ratio"},
      {"core.intersects_all_ns", "ns"},
      {"core.mindist_ns", "ns"},
      {"core.clip_test_ns", "ns"},
      {"core.clip_prune_ratio", "ratio"},
      {"buffer_pool.hit_ratio", "ratio"},
      {"buffer_pool.misses_per_query", "count"},
      {"buffer_pool.evictions_per_query", "count"},
      {"buffer_pool.pin_hit_ns", "ns"},
      {"buffer_pool.pin_hit_ns_contended", "ns"},
      {"buffer_pool.pin_miss_ns", "ns"},
      {"page_file.read_ns", "ns"},
      {"page_file.reads_per_query", "count"},
      {"page_format.verify_ns", "ns"},
      {"page_format.decode_ns", "ns"},
      {"epoch.pin_ns", "ns"},
      {"epoch.live_deltas", "count"},
      {"epoch.retained_bytes", "bytes"},
      {"epoch.pinned_overhead_ratio", "ratio"},
      {"writer.insert_ns", "ns"},
      {"writer.delete_ns", "ns"},
      {"writer.page_writes_per_write", "count"},
      {"writer.checkpoint_ms", "ms"},
      {"wal.syncs_per_write", "count"},
      {"wal.appends_per_write", "count"},
      {"replica.refresh_ns", "ns"},
      {"replica.windows_per_refresh", "count"},
      {"replica.apply_ns_per_window", "ns"},
      {"replica.rebases", "count"},
      {"replica.stale_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return kNames;
}

/// Collects per-layer values by name; Emit() adds all of them, in order,
/// with 0 for those never set.
class LayerValues {
 public:
  void Set(const std::string& name, double v) { values_[name] = v; }
  void Emit(Report* rep) const {
    std::vector<std::string> names;
    for (const auto& [name, unit] : PerLayerNames()) {
      const auto it = values_.find(name);
      rep->Add(name, it == values_.end() ? 0.0 : it->second, unit);
      names.push_back(name);
    }
    for (const auto& [name, v] : values_) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                     name.c_str());
        std::exit(3);
      }
    }
    rep->SetJsonNames(names);
  }

 private:
  std::map<std::string, double> values_;
};

void SetQueryLayers(const PhaseResult& p, double span_cost,
                    LayerValues* lv) {
  const ClientStats& t = p.total;
  const double q = static_cast<double>(t.ops);
  lv->Set("query_api.execute_self_ns",
          MeanNs(p.aggs, kSpanExecute) - MeanNs(p.aggs, kSpanTraverse));
  lv->Set("rtree.internal_accesses_per_query",
          Ratio(t.io.internal_accesses, q));
  lv->Set("rtree.leaf_accesses_per_query", Ratio(t.io.leaf_accesses, q));
  lv->Set("rtree.clip_tests_per_query", Ratio(t.io.clip_accesses, q));
  lv->Set("rtree.results_per_query", Ratio(t.results, q));
  lv->Set("rtree.useful_leaf_ratio",
          Ratio(t.io.contributing_leaf_accesses, t.io.leaf_accesses));
  lv->Set("core.intersects_all_ns",
          LeafNs(p.aggs, kSpanIntersectsAll, span_cost));
  lv->Set("core.mindist_ns", PerItemNs(p.aggs, kSpanMinDist, span_cost));
  lv->Set("core.clip_test_ns", LeafNs(p.aggs, kSpanClipsPrune, span_cost));
  lv->Set("core.clip_prune_ratio", Ratio(t.clips.prunes, t.clips.tests));
  lv->Set("page_file.read_ns", LeafNs(p.aggs, kSpanReadPage, span_cost));
  lv->Set("page_format.verify_ns", LeafNs(p.aggs, kSpanVerify, span_cost));
  lv->Set("page_format.decode_ns", LeafNs(p.aggs, kSpanDecode, span_cost));
  lv->Set("buffer_pool.pin_miss_ns",
          std::max(LeafNs(p.aggs, kSpanPinMiss, span_cost),
                   LeafNs(p.aggs, kSpanCopyMiss, span_cost)));
  lv->Set("epoch.pin_ns", LeafNs(p.aggs, kSpanPinSnapshot, span_cost));
}

/// Median over the slices of a per-slice latency percentile, in us, and
/// the sample count over all slices.
std::pair<double, uint64_t> SlicedPercentile(
    const std::vector<std::vector<uint32_t>>& slices, double p) {
  std::vector<double> per;
  uint64_t n = 0;
  for (const auto& v : slices) {
    if (v.empty()) continue;
    per.push_back(Percentile(v, p) / 1e3);
    n += v.size();
  }
  return {Median(per), n};
}

/// qps (median over slices) and the window / kNN latency percentiles.
void AddThroughputAndLatency(const ClientStats& t, double slice_seconds,
                             Report* rep) {
  std::vector<double> qps;
  std::string per_slice;
  for (uint64_t ops : t.slice_ops) {
    qps.push_back(Ratio(ops, slice_seconds));
    per_slice += " " + std::to_string(static_cast<uint64_t>(qps.back()));
  }
  rep->Note("slices: qps" + per_slice);
  rep->Add("qps", Median(qps), "1/s", t.ops);
  const auto w50 = SlicedPercentile(t.window_ns, 0.50);
  const auto w99 = SlicedPercentile(t.window_ns, 0.99);
  const auto k50 = SlicedPercentile(t.knn_ns, 0.50);
  const auto k99 = SlicedPercentile(t.knn_ns, 0.99);
  rep->Add("window_p50_us", w50.first, "us", w50.second);
  rep->Add("window_p99_us", w99.first, "us", w99.second);
  rep->Add("knn_p50_us", k50.first, "us", k50.second);
  rep->Add("knn_p99_us", k99.first, "us", k99.second);
}

void WriteRecords(const Args& args, const std::vector<SpanRecord>& recs,
                  Report* rep) {
  const std::string path = args.out_dir + "/spans_" + args.workload_name +
                           "_" + std::to_string(args.seed) + ".json";
  if (WriteSpans(path.c_str(), recs)) {
    rep->Note("spans: " + std::to_string(recs.size()) + " records in " +
              path);
  }
}

// ------------------------------------------------------ read workloads

/// Warm-up: a pass over the stream, so caches and the LRU are in their
/// steady state.
void WarmUp(const Engine& engine, const Stream& stream, unsigned threads) {
  clipbb::rtree::QueryBatchOptions o;
  o.hilbert_order = false;
  o.threads = threads;
  engine.ExecuteBatch(std::span<const Spec>(stream.specs), o);
}

int RunRead(const Args& args, unsigned nproc) {
  Verdict verdict;
  Report rep;
  const std::filesystem::path out(args.out_dir);
  std::filesystem::create_directories(out);

  std::vector<double> setup_s;
  std::unique_ptr<System> sys = SetUpRepeated(args, 0, &setup_s, &verdict);
  if (!sys) return 1;
  SyncFile(sys->path, &verdict);
  const Engine engine = sys->paged ? Engine(*sys->paged) : Engine(*sys->tree);
  const unsigned clients = std::min(kReadClients, nproc);

  const uint64_t prep0 = NowNs();
  // mem_read measures traversal, kernels and the clip test. In drawn
  // order its time goes mostly to cache misses, whose cost moves with
  // other tenants' load on a shared L3, at about twice the run-to-run
  // spread of the Hilbert order.
  Stream stream = MakeStream(sys->data, args.seed,
                             args.workload == Workload::kMemRead
                                 ? StreamOrder::kHilbert
                                 : StreamOrder::kDrawn);
  const uint64_t prep1 = NowNs();
  ComputeReference(*sys->tree, sys->data.items, nproc, &stream, &verdict);
  if (args.corrupt_reference) ++stream.counts[0];
  const uint64_t prep2 = NowNs();
  rep.Note("inputs: stream " + std::to_string((prep1 - prep0) / 1e9) +
           " s, reference " + std::to_string((prep2 - prep1) / 1e9) + " s");

  rep.Note("workload " + args.workload_name + ", seed " +
           std::to_string(args.seed) + ", " +
           std::to_string(sys->data.size()) + " objects, " +
           std::to_string(sys->tree->NumNodes()) + " nodes, stream " +
           std::to_string(stream.specs.size()) + " queries, " +
           std::to_string(clients) + " closed-loop clients");
  if (sys->paged) {
    const auto& sb = sys->paged->superblock();
    rep.Note("node pages (NumNodes) " + std::to_string(sb.num_nodes) +
             ", section pages (incl. clip spill) " +
             std::to_string(sb.num_section_pages) + ", pool frames " +
             std::to_string(sys->paged->pool().capacity()) + " in " +
             std::to_string(sys->paged->pool().shards()) + " shards");
  }
  WarmUp(engine, stream, nproc);

  ReadTarget target{&engine, &stream, sys->tree.get(), sys->paged.get(),
                    sys->path};
  uint64_t attempted = 0, failed = 0;
  const double T = args.seconds;

  if (!args.trace) {
    const PoolCounters p0 = ReadPool(sys->paged.get());
    const PhaseResult all = RunClients(target, clients, 0.7 * T, false,
                                       &verdict);
    const PoolCounters p1 = ReadPool(sys->paged.get());
    const PhaseResult one = RunClients(target, 1, 0.15 * T, false, &verdict);
    const double batch_qps =
        RunBatches(engine, stream, nproc, 0.15 * T, &attempted, &verdict);
    attempted += all.total.ops + one.total.ops;
    failed += all.total.failed + one.total.failed;
    rep.Add("setup_s", Median(setup_s), "s", setup_s.size());
    AddThroughputAndLatency(all.total, all.slice_seconds, &rep);
    rep.Add("qps_1c", one.qps(), "1/s", one.total.ops);
    rep.Add("batch_qps", batch_qps, "1/s");
    if (sys->paged) {
      rep.Add("page_reads_per_query",
              Ratio(one.total.io.page_reads, one.total.ops), "count",
              one.total.ops);
      rep.Add("file_bytes_per_object",
              Ratio(std::filesystem::file_size(sys->path),
                    sys->paged->NumObjects()),
              "bytes");
      rep.Note("pool over the all-clients phase: " +
               std::to_string(p1.hits - p0.hits) + " hits, " +
               std::to_string(p1.misses - p0.misses) + " misses");
    }
    rep.Add("failed_op_ratio", Ratio(failed, attempted), "ratio", attempted);
    rep.SetJsonNames({"setup_s", "qps", "window_p50_us", "window_p99_us",
                      "knn_p50_us", "knn_p99_us"});
  } else {
    const double span_cost = CalibrateSpanCost();
    LayerValues lv;
    // Untraced baseline: the trace-overhead denominator and the pool's
    // per-query counters, free of replay traffic.
    const PoolCounters p0 = ReadPool(sys->paged.get());
    const PhaseResult base =
        RunClients(target, clients, 0.25 * T, false, &verdict);
    const PoolCounters p1 = ReadPool(sys->paged.get());
    const PhaseResult traced =
        RunClients(target, clients, 0.35 * T, true, &verdict);
    const PhaseResult one = RunClients(target, 1, 0.25 * T, true, &verdict);
    attempted += base.total.ops + traced.total.ops + one.total.ops;
    failed += base.total.failed + traced.total.failed + one.total.failed;
    SetQueryLayers(traced, span_cost, &lv);
    lv.Set("obs.trace_overhead_ratio", Ratio(base.qps(), traced.qps()));
    if (sys->paged) {
      const double q = static_cast<double>(base.total.ops);
      lv.Set("buffer_pool.hit_ratio",
             Ratio(p1.hits - p0.hits,
                   (p1.hits - p0.hits) + (p1.misses - p0.misses)));
      lv.Set("buffer_pool.misses_per_query", Ratio(p1.misses - p0.misses, q));
      lv.Set("buffer_pool.evictions_per_query",
             Ratio(p1.evictions - p0.evictions, q));
      lv.Set("page_file.reads_per_query",
             Ratio(p1.file_reads - p0.file_reads, q));
      lv.Set("buffer_pool.pin_hit_ns",
             LeafNs(one.aggs, kSpanPinHit, span_cost));
      lv.Set("buffer_pool.pin_hit_ns_contended",
             LeafNs(traced.aggs, kSpanPinHit, span_cost));
    }
    if (sys->paged) {
      // The same queries pinned and unpinned, one client.
      ReadTarget pinned = target;
      pinned.pin = PinMode::kPinned;
      const PhaseResult unp =
          RunClients(target, 1, 0.075 * T, false, &verdict);
      const PhaseResult pin =
          RunClients(pinned, 1, 0.075 * T, false, &verdict);
      attempted += unp.total.ops + pin.total.ops;
      failed += unp.total.failed + pin.total.failed;
      lv.Set("epoch.pinned_overhead_ratio", Ratio(unp.qps(), pin.qps()));
    }
    lv.Emit(&rep);
    WriteRecords(args, traced.records, &rep);
  }
  RemoveTreeFiles(std::move(sys));
  const bool correct = verdict.ok();
  if (!correct) std::fprintf(stderr, "FAIL: %s\n", verdict.first().c_str());
  rep.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ follow_rw

struct Boundary {
  uint64_t op = 0;
  uint64_t t = 0;
};

struct WriterStats {
  std::vector<uint32_t> op_ns;
  uint64_t insert_ns = 0, inserts = 0, delete_ns = 0, deletes = 0;
  uint64_t checkpoint_ns = 0, checkpoints = 0;
  uint64_t ops = 0;
  double seconds = 0.0;
  uint64_t end_t = 0;
  std::vector<Boundary> boundaries;
  IoStats io0, io1;
  uint64_t file_writes = 0;  // page-file writes, checkpoint flushes included
};

struct RefreshStats {
  uint64_t calls = 0, failures = 0, total_ns = 0;
  uint64_t windows = 0, apply_ns = 0, apply_windows = 0, rebases = 0;
  double deltas_sum = 0, retained_sum = 0;
  uint64_t samples = 0;
  std::vector<Boundary> seen;  // follower's last_committed_op over time
};

/// Fixed check set over every query kind, from the stream's windows.
std::vector<Spec> CheckSet(const Stream& s) {
  std::vector<Spec> out;
  int made = 0;
  for (const Spec& q : s.specs) {
    if (q.kind != QueryKind::kIntersects) continue;
    const Rect& w = q.window;
    switch (made % 5) {
      case 0: out.push_back(Spec::Intersects(w)); break;
      case 1: out.push_back(Spec::ContainsPoint(w.Center())); break;
      case 2: out.push_back(Spec::ContainedIn(w)); break;
      case 3: out.push_back(Spec::Encloses(w)); break;
      case 4: out.push_back(Spec::Knn(w.Center(), kKnnK)); break;
    }
    if (++made == 5 * kCheckPerKind) break;
  }
  return out;
}

bool Matches(const Spec& q, const Rect& r) {
  switch (q.kind) {
    case QueryKind::kIntersects: return r.Intersects(q.window);
    case QueryKind::kContainsPoint: return r.ContainsPoint(q.point);
    case QueryKind::kContainedIn: return q.window.Contains(r);
    case QueryKind::kEncloses: return r.Contains(q.window);
    case QueryKind::kKnn: break;
  }
  return false;
}

int RunFollow(const Args& args, unsigned nproc) {
  Verdict verdict;
  Report rep;
  std::filesystem::create_directories(args.out_dir);
  const size_t held_n = args.objects / 4;

  std::vector<double> setup_s;
  std::unique_ptr<System> sys =
      SetUpRepeated(args, held_n, &setup_s, &verdict);
  if (!sys) return 1;
  SyncFile(sys->path, &verdict);
  Paged& writer = *sys->writer;
  Paged& follower = *sys->paged;
  const Engine engine(follower);
  const Engine writer_engine(writer);
  Stream stream = MakeStream(sys->data, args.seed, StreamOrder::kDrawn);
  const unsigned readers = std::min(kFollowReaders, nproc);
  rep.Note("workload follow_rw, seed " + std::to_string(args.seed) + ", " +
           std::to_string(sys->data.size()) + " objects, " +
           std::to_string(follower.NumNodes()) + " node pages, " +
           std::to_string(follower.superblock().num_section_pages) +
           " section pages; writer + refresher + " +
           std::to_string(readers) + " pinned closed-loop readers; "
           "commit_every " + std::to_string(kCommitEvery) +
           ", open-loop writer at " + std::to_string(kWriteRate) +
           " writes/s, checkpoint every " + std::to_string(kCheckpointEvery) +
           " writes, WAL fsync per commit");

  const uint64_t warm0 = NowNs();
  // Warm both pools (no eviction during the run: both hold every page).
  {
    std::vector<std::byte> buf(follower.superblock().file_page_size);
    const uint64_t pages = follower.superblock().num_section_pages;
    for (uint64_t p = 1; p <= pages; ++p) {
      follower.pool().ReadPageCopy(p, buf.data());
      if (writer.pool().Pin(p) != nullptr) writer.pool().Unpin(p);
    }
  }

  // Live-set bookkeeping for the final linear-scan oracle.
  std::vector<Entry<kDim>> live = sys->data.items;
  std::vector<uint8_t> dead(live.size(), 0);
  size_t next_insert = 0;

  const double T = args.seconds;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(T * 1e9);
  std::atomic<bool> stop{false};
  const double span_cost = args.trace ? CalibrateSpanCost() : 0.0;

  WriterStats ws;
  Tracer wtr(args.trace, 0, kKeepSpans);
  std::thread wthread([&] {
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 11);
    ws.io0 = writer.update_io();
    const uint64_t fw0 = writer.file().writes();
    const uint64_t w0 = NowNs();
    while (next_insert < sys->held_out.size()) {
      // Open loop: write i is due at w0 + i / kWriteRate, and its latency
      // counts from then, so a stall also delays the writes behind it.
      const uint64_t due = w0 + ws.ops * 1'000'000'000ULL / kWriteRate;
      if (due >= deadline) break;
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const bool insert = ws.ops % 2 == 0;
      wtr.BeginRequest(ws.ops, ws.ops % kKeepEvery == 0);
      wtr.Begin(kSpanRequest);
      bool ok;
      uint64_t dt;
      if (insert) {
        const Entry<kDim>& e = sys->held_out[next_insert++];
        wtr.Begin(kSpanInsert);
        const uint64_t t0 = NowNs();
        ok = writer.Insert(e.rect, e.id);
        dt = NowNs() - t0;
        wtr.End();
        ws.insert_ns += dt;
        ++ws.inserts;
        live.push_back(e);
        dead.push_back(0);
      } else {
        size_t v;
        do {
          v = rng.Below(sys->data.items.size());
        } while (dead[v]);
        dead[v] = 1;
        wtr.Begin(kSpanDelete);
        const uint64_t t0 = NowNs();
        ok = writer.Delete(live[v].rect, live[v].id);
        dt = NowNs() - t0;
        wtr.End();
        ws.delete_ns += dt;
        ++ws.deletes;
      }
      ws.op_ns.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(NowNs() - due, UINT32_MAX)));
      if (!ok) verdict.Fail("writer operation failed");
      ++ws.ops;
      if (ws.ops % kCommitEvery == 0) {
        ws.boundaries.push_back({writer.last_committed_op(), NowNs()});
      }
      if (ws.ops % kCheckpointEvery == 0) {
        wtr.Begin(kSpanCheckpoint);
        const uint64_t t0 = NowNs();
        if (!writer.Checkpoint()) verdict.Fail("checkpoint failed");
        const uint64_t t1 = NowNs();
        wtr.End();
        ws.checkpoint_ns += t1 - t0;
        ++ws.checkpoints;
        ws.boundaries.push_back({writer.last_committed_op(), t1});
      }
      wtr.End();  // request
    }
    ws.end_t = NowNs();
    ws.seconds = static_cast<double>(ws.end_t - w0) / 1e9;
    ws.io1 = writer.update_io();
    ws.file_writes = writer.file().writes() - fw0;
    stop.store(true);
  });

  RefreshStats rs;
  Tracer rtr(args.trace, 1, kKeepSpans);
  std::thread rthread([&] {
    uint64_t windows0 = follower.replica_windows_applied();
    uint64_t rebases0 = follower.replica_rebases();
    while (!stop.load(std::memory_order_relaxed)) {
      Status st;
      rtr.BeginRequest(rs.calls, rs.calls % kKeepEvery == 0);
      rtr.Begin(kSpanRefresh);
      const uint64_t t0 = NowNs();
      const bool ok = follower.Refresh(&st);
      const uint64_t t1 = NowNs();
      rtr.End();
      ++rs.calls;
      if (!ok) ++rs.failures;
      rs.total_ns += t1 - t0;
      const uint64_t windows1 = follower.replica_windows_applied();
      const uint64_t rebases1 = follower.replica_rebases();
      const uint64_t w = windows1 - windows0;
      rs.windows += w;
      if (w > 0 && rebases1 == rebases0) {
        rs.apply_ns += t1 - t0;
        rs.apply_windows += w;
      }
      rs.rebases += rebases1 - rebases0;
      windows0 = windows1;
      rebases0 = rebases1;
      rs.seen.push_back({follower.last_committed_op(), t1});
      const clipbb::storage::EpochStats es = follower.EpochChainStats();
      rs.deltas_sum += static_cast<double>(es.live_deltas);
      rs.retained_sum += static_cast<double>(es.retained_bytes);
      ++rs.samples;
      if (w == 0 && ok) std::this_thread::sleep_for(kRefreshPollInterval);
    }
  });

  // Readers: pinned closed-loop clients on the follower, stopping with
  // the writer.
  std::vector<ClientStats> per(readers, ClientStats(SliceCount(T)));
  std::atomic<uint64_t> next{0};
  ReadTarget target{&engine, &stream, nullptr, &follower, sys->path};
  target.check_reference = false;
  target.pin = PinMode::kPinned;
  std::vector<std::thread> rthreads;
  const uint64_t r0 = NowNs();
  for (unsigned c = 0; c < readers; ++c) {
    per[c].tracer = Tracer(args.trace, static_cast<uint8_t>(2 + c), kKeepSpans);
    rthreads.emplace_back(
        [&, c] {
          RunClient(target, r0, deadline, &next, &per[c], &verdict);
        });
  }
  for (auto& th : rthreads) th.join();
  wthread.join();
  rthread.join();

  // Quiesce: checkpoint, refresh, then the follower must match the writer
  // on every query kind, and the writer must match a linear scan of the
  // live objects.
  const uint64_t quiesce0 = NowNs();
  if (!writer.Checkpoint()) verdict.Fail("final checkpoint failed");
  Status fst;
  if (!follower.Refresh(&fst)) verdict.Fail("final refresh failed");
  if (follower.last_committed_op() != writer.last_committed_op()) {
    verdict.Fail("follower did not converge to the writer");
  }
  const uint64_t checks0 = NowNs();
  const std::vector<Spec> checks = CheckSet(stream);
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < checks.size(); ++i) {
    const Spec& q = checks[i];
    std::vector<KnnNeighbor<kDim>> a, b;
    clipbb::rtree::KnnHeapSink<kDim> sa(&a), sb(&b);
    Status s1, s2;
    const EngineSnap snap = engine.PinSnapshot();
    writer_engine.Execute(q, &sa, nullptr, nullptr, &s1);
    engine.Execute(q, &sb, nullptr, nullptr, &s2, &snap);
    attempted += 2;
    if (!s1.ok() || !s2.ok()) {
      verdict.Fail("check-set query failed");
      failed += !s1.ok() + !s2.ok();
      continue;
    }
    auto ids = [](std::vector<KnnNeighbor<kDim>> v, bool sort) {
      std::vector<ObjectId> out;
      for (const auto& n : v) out.push_back(n.id);
      if (sort) std::sort(out.begin(), out.end());
      return out;
    };
    const bool knn = q.kind == QueryKind::kKnn;
    if (ids(a, !knn) != ids(b, !knn)) {
      verdict.Fail("follower disagrees with writer on check query " +
                   std::to_string(i));
    }
    if (!knn) {
      size_t want = 0;
      for (size_t j = 0; j < live.size(); ++j) {
        want += !dead[j] && Matches(q, live[j].rect);
      }
      if (args.corrupt_reference && i == 0) ++want;
      if (a.size() != want) {
        verdict.Fail("writer disagrees with linear scan on check query " +
                     std::to_string(i));
      }
    }
  }

  rep.Note("phases: warm-up " + std::to_string((start - warm0) / 1e9) +
           " s, run " + std::to_string((quiesce0 - start) / 1e9) +
           " s, final checkpoint + refresh " +
           std::to_string((checks0 - quiesce0) / 1e9) + " s, check set " +
           std::to_string((NowNs() - checks0) / 1e9) + " s");
  ClientStats reads;
  SpanAggs aggs{};
  std::vector<SpanRecord> recs;
  for (const ClientStats& cs : per) {
    reads.Merge(cs);
    for (int i = 0; i < kNumSpanNames; ++i) aggs[i] += cs.tracer.aggs()[i];
  }
  for (int i = 0; i < kNumSpanNames; ++i) {
    aggs[i] += wtr.aggs()[i];
    aggs[i] += rtr.aggs()[i];
  }
  attempted += reads.ops + ws.ops + ws.checkpoints;
  failed += reads.failed;

  // Replica lag: from each commit boundary until the follower's applied
  // op covers it (observations are monotone in time). A boundary still
  // uncovered when the writer stopped counts until that moment: a lower
  // bound, so a follower that falls behind shows as lag the length of
  // the run rather than as missing samples.
  std::vector<uint32_t> lag_us;
  {
    size_t j = 0;
    for (const Boundary& b : ws.boundaries) {
      while (j < rs.seen.size() &&
             (rs.seen[j].op < b.op || rs.seen[j].t < b.t)) {
        ++j;
      }
      const uint64_t seen_t = j < rs.seen.size() ? rs.seen[j].t : ws.end_t;
      lag_us.push_back(static_cast<uint32_t>(
          std::min<uint64_t>((seen_t - std::min(seen_t, b.t)) / 1000,
                             UINT32_MAX)));
    }
  }
  const IoStats wio = [&] {
    IoStats d = ws.io1;
    d.wal_bytes -= ws.io0.wal_bytes;
    d.wal_appends -= ws.io0.wal_appends;
    d.wal_syncs -= ws.io0.wal_syncs;
    return d;
  }();
  const double writes = static_cast<double>(ws.ops);

  if (!args.trace) {
    rep.Add("setup_s", Median(setup_s), "s", setup_s.size());
    AddThroughputAndLatency(reads, T / static_cast<double>(SliceCount(T)),
                            &rep);
    rep.Add("write_ops_per_s", Ratio(writes, ws.seconds), "1/s", ws.ops);
    rep.Add("write_p99_us", Percentile(ws.op_ns, 0.99) / 1e3, "us",
            ws.op_ns.size());
    rep.Add("wal_bytes_per_write", Ratio(wio.wal_bytes, writes), "bytes",
            ws.ops);
    rep.Add("replica_lag_p99_ms", Percentile(lag_us, 0.99) / 1e3, "ms",
            lag_us.size());
    rep.Add("file_bytes_per_object",
            Ratio(std::filesystem::file_size(sys->path),
                  writer.NumObjects()),
            "bytes");
    rep.Add("failed_op_ratio", Ratio(failed, attempted), "ratio", attempted);
    rep.SetJsonNames({"setup_s", "qps", "window_p50_us", "window_p99_us",
                      "knn_p50_us", "knn_p99_us"});
  } else {
    LayerValues lv;
    PhaseResult p;
    p.total = reads;
    p.aggs = aggs;
    SetQueryLayers(p, span_cost, &lv);
    lv.Set("buffer_pool.pin_hit_ns", LeafNs(aggs, kSpanCopyHit, span_cost));
    lv.Set("buffer_pool.pin_hit_ns_contended",
           LeafNs(aggs, kSpanCopyHit, span_cost));
    lv.Set("epoch.live_deltas", Ratio(rs.deltas_sum, rs.samples));
    lv.Set("epoch.retained_bytes", Ratio(rs.retained_sum, rs.samples));
    lv.Set("writer.insert_ns", Ratio(ws.insert_ns, ws.inserts));
    lv.Set("writer.delete_ns", Ratio(ws.delete_ns, ws.deletes));
    lv.Set("writer.page_writes_per_write", Ratio(ws.file_writes, writes));
    lv.Set("writer.checkpoint_ms",
           Ratio(ws.checkpoint_ns, ws.checkpoints) / 1e6);
    lv.Set("wal.syncs_per_write", Ratio(wio.wal_syncs, writes));
    lv.Set("wal.appends_per_write", Ratio(wio.wal_appends, writes));
    lv.Set("replica.refresh_ns", Ratio(rs.total_ns, rs.calls));
    lv.Set("replica.windows_per_refresh", Ratio(rs.windows, rs.calls));
    lv.Set("replica.apply_ns_per_window", Ratio(rs.apply_ns, rs.apply_windows));
    lv.Set("replica.rebases", static_cast<double>(rs.rebases));
    lv.Set("replica.stale_ratio", Ratio(reads.stale, reads.ops));
    lv.Emit(&rep);
    std::vector<SpanRecord> all_recs;
    for (const ClientStats& cs : per) {
      const size_t base = all_recs.size();
      for (SpanRecord r : cs.tracer.records()) {
        if (r.parent >= 0) r.parent += static_cast<int32_t>(base);
        all_recs.push_back(r);
      }
    }
    for (const Tracer* t : {&wtr, &rtr}) {
      const size_t base = all_recs.size();
      for (SpanRecord r : t->records()) {
        if (r.parent >= 0) r.parent += static_cast<int32_t>(base);
        all_recs.push_back(r);
      }
    }
    WriteRecords(args, all_recs, &rep);
  }
  rep.Note("writer: " + std::to_string(ws.ops) + " writes, " +
           std::to_string(ws.checkpoints) + " checkpoints; refresher: " +
           std::to_string(rs.calls) + " refreshes, " +
           std::to_string(rs.windows) + " windows, " +
           std::to_string(rs.rebases) + " rebases, " +
           std::to_string(rs.failures) + " transient failures; readers: " +
           std::to_string(reads.stale) + " stale snapshots");
  RemoveTreeFiles(std::move(sys));
  const bool correct = verdict.ok();
  if (!correct) std::fprintf(stderr, "FAIL: %s\n", verdict.first().c_str());
  rep.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned nproc = hw == 0 ? 1 : hw;
  if (args.workload == perfbench::Workload::kFollowRw) {
    return perfbench::RunFollow(args, nproc);
  }
  return perfbench::RunRead(args, nproc);
}
