// Replay of the engine's traversals from outside, through each layer's
// public calls, so the traced run can time every layer separately: pool
// pins (hit / miss), page reads, checksum verification, page decode, the
// IntersectsAll / MINDIST kernels, the Algorithm-2 clip test and the
// epoch-chain lookups of pinned reads.
//
// A replay walks the same nodes in the same order as the engine and must
// reproduce its result count, its kNN id list and its logical IoStats
// (internal, leaf, contributing-leaf and clip accesses) exactly; the
// traced run fails otherwise. Three sources resolve nodes the way the
// engine's own sources do: the in-memory tree's SoA mirror, the latest
// state of a paged tree through its buffer pool, and a pinned epoch of a
// paged tree (pre-image chain first, then a latched frame copy).
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <bit>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "core/intersect.h"
#include "core/mindist.h"
#include "rtree/epoch.h"
#include "rtree/knn.h"
#include "rtree/page_format.h"
#include "rtree/paged_rtree.h"
#include "rtree/rtree.h"
#include "rtree/soa.h"
#include "spans.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace perfbench {

using clipbb::core::ClipPoint;
using clipbb::rtree::ObjectId;
using clipbb::rtree::SoaNodeView;
using clipbb::storage::ErrorKind;
using clipbb::storage::IoStats;
using clipbb::storage::Status;

constexpr int kDim = 2;
using Rect = clipbb::geom::Rect<kDim>;
using Vec = clipbb::geom::Vec<kDim>;
using ClipSpan = std::span<const ClipPoint<kDim>>;

/// Clip-test outcomes of window replays (not part of IoStats).
struct ClipCounts {
  uint64_t tests = 0;   // children that passed the MBB test
  uint64_t prunes = 0;  // ... and were then rejected by their clip points

  ClipCounts& operator+=(const ClipCounts& o) {
    tests += o.tests;
    prunes += o.prunes;
    return *this;
  }
};

struct NodeRef {
  SoaNodeView<kDim> soa;
  bool leaf = false;
};

inline Rect EntryRect(const SoaNodeView<kDim>& v, uint32_t i) {
  Rect r;
  for (int d = 0; d < kDim; ++d) {
    r.lo[d] = v.lo[d][i];
    r.hi[d] = v.hi[d][i];
  }
  return r;
}

/// The in-memory tree: nodes resolve through the SoA mirror.
struct MemorySource {
  const clipbb::rtree::RTree<kDim>* tree;

  int64_t root() const { return tree->root(); }
  bool clipped() const { return tree->clipping_enabled(); }
  bool ChildInRange(int64_t) const { return true; }
  bool Acquire(int64_t id, Tracer&, NodeRef* out, Status*) {
    out->leaf = tree->NodeAt(id).IsLeaf();
    out->soa = tree->soa().NodeView(id);
    return true;
  }
  void Release(int64_t, Tracer&) {}
  ClipSpan Clips(int64_t child, Tracer&) {
    return tree->clip_index().Get(child);
  }
};

/// Decodes a page inside a DecodeNodePage span.
inline NodeRef DecodeTraced(const std::byte* bytes, Tracer& tr) {
  tr.Begin(kSpanDecode);
  const clipbb::rtree::PagedNodeView<kDim> v =
      clipbb::rtree::DecodeNodePage<kDim>(bytes);
  tr.End();
  return NodeRef{v.Soa(), v.IsLeaf()};
}

/// The latest state of a read-only paged tree, through its buffer pool.
/// In a traced run a page that is not resident is first read and
/// verified through a separate PageFile (`probe`), which times the miss
/// path's pread and checksum on their own; the pool then performs its
/// own miss exactly as Execute would.
struct PagedSource {
  clipbb::rtree::PagedRTree<kDim>* tree;
  clipbb::storage::PageFile* probe = nullptr;
  std::vector<std::byte>* probe_buf = nullptr;
  clipbb::storage::BufferPool::PinIo pin_io;
  bool probe_failed = false;

  int64_t root() const { return tree->superblock().root_page; }
  bool clipped() const { return tree->clipping_enabled(); }
  bool ChildInRange(int64_t c) const {
    return c >= 0 &&
           c < static_cast<int64_t>(tree->superblock().num_section_pages);
  }
  bool Acquire(int64_t id, Tracer& tr, NodeRef* out, Status* st) {
    const clipbb::storage::PageId fid = 1 + id;
    clipbb::storage::BufferPool& pool = tree->pool();
    if (tr.enabled() && probe != nullptr && !pool.Resident(fid)) {
      tr.Begin(kSpanReadPage);
      const bool read = probe->ReadPage(fid, probe_buf->data());
      tr.End();
      tr.Begin(kSpanVerify);
      const bool verified = clipbb::rtree::VerifyPageChecksum(
          probe_buf->data(), probe_buf->size());
      tr.End();
      if (!read || !verified) probe_failed = true;
    }
    const uint32_t reads0 = pin_io.reads;
    tr.Begin(kSpanPinHit);
    const std::byte* bytes = pool.Pin(fid, &pin_io, st);
    tr.End(pin_io.reads != reads0 ? kSpanPinMiss : kNumSpanNames);
    if (bytes == nullptr) return false;
    *out = DecodeTraced(bytes, tr);
    return true;
  }
  void Release(int64_t id, Tracer& tr) {
    tr.Begin(kSpanUnpin);
    tree->pool().Unpin(1 + id, false, 0, &pin_io);
    tr.End();
  }
  ClipSpan Clips(int64_t child, Tracer&) {
    return tree->clip_index().Get(child);
  }
};

/// A pinned epoch of a paged tree (follower reads): the pre-image chain
/// first, otherwise a latched copy of the pool frame, re-checked against
/// the chain, with the follower's applied-LSN gate.
struct SnapshotSource {
  clipbb::rtree::PagedRTree<kDim>* tree;
  const clipbb::rtree::Snapshot<kDim>* snap;
  std::vector<std::byte>* page_buf;
  typename clipbb::rtree::EpochManager<kDim>::ClipRun clip_buf;
  clipbb::storage::BufferPool::PinIo pin_io;

  int64_t root() const { return snap->view().root_page; }
  bool clipped() const { return snap->view().clipped; }
  bool ChildInRange(int64_t c) const {
    return c >= 0 &&
           c < static_cast<int64_t>(snap->view().num_section_pages);
  }
  const std::vector<std::byte>* FindPage(clipbb::storage::PageId fid,
                                         Tracer& tr) {
    tr.Begin(kSpanFindPage);
    const std::vector<std::byte>* pre =
        snap->manager()->FindPage(snap->epoch(), fid);
    tr.End();
    return pre;
  }
  bool Resolve(const std::vector<std::byte>* pre,
               clipbb::storage::PageId fid, Tracer& tr, NodeRef* out,
               Status* st) {
    if (pre->empty()) {
      if (st) *st = {ErrorKind::kStaleSnapshot, fid};
      return false;
    }
    *out = DecodeTraced(pre->data(), tr);
    return true;
  }
  bool Acquire(int64_t id, Tracer& tr, NodeRef* out, Status* st) {
    const clipbb::storage::PageId fid = 1 + id;
    if (const auto* pre = FindPage(fid, tr)) {
      return Resolve(pre, fid, tr, out, st);
    }
    Status s;
    const uint32_t reads0 = pin_io.reads;
    tr.Begin(kSpanCopyHit);
    const bool ok =
        tree->pool().ReadPageCopy(fid, page_buf->data(), &pin_io, &s);
    tr.End(pin_io.reads != reads0 ? kSpanCopyMiss : kNumSpanNames);
    if (!ok) {
      if (s.kind == ErrorKind::kChecksum && snap->view().follower) {
        s.kind = ErrorKind::kStaleSnapshot;
      }
      if (st) *st = s;
      return false;
    }
    if (const auto* pre = FindPage(fid, tr)) {
      return Resolve(pre, fid, tr, out, st);
    }
    if (snap->view().follower &&
        clipbb::rtree::PageLsn(page_buf->data()) >
            snap->view().applied_lsn) {
      if (st) *st = {ErrorKind::kStaleSnapshot, fid};
      return false;
    }
    *out = DecodeTraced(page_buf->data(), tr);
    return true;
  }
  void Release(int64_t, Tracer&) {}
  ClipSpan Clips(int64_t child, Tracer& tr) {
    ClipSpan out;
    tr.Begin(kSpanFindClips);
    const bool found = snap->manager()->FindClips(snap->epoch(), child,
                                                  &out, &clip_buf);
    tr.End();
    return found ? out : tree->clip_index().Get(child);
  }
};

/// Window (intersects) traversal: depth-first, children pushed in
/// ascending entry order — the engine's visit order.
template <typename Src>
size_t ReplayWindow(Src& src, const Rect& window, Tracer& tr, IoStats* io,
                    ClipCounts* clips, Status* st,
                    clipbb::rtree::TraversalScratch* scratch) {
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(src.root());
  size_t found = 0;
  while (!stack.empty()) {
    const int64_t id = stack.back();
    stack.pop_back();
    NodeRef node;
    if (!src.Acquire(id, tr, &node, st)) break;
    const uint32_t n = node.soa.n;
    uint64_t* mask = scratch->MaskFor(n);
    tr.Begin(kSpanIntersectsAll);
    clipbb::rtree::IntersectsAll<kDim>(node.soa, window, mask,
                                       scratch->FlagsFor(n));
    tr.End(kNumSpanNames, n);
    if (node.leaf) {
      ++io->leaf_accesses;
      size_t hits = 0;
      for (uint32_t w = 0; w * 64 < n; ++w) {
        hits += static_cast<size_t>(std::popcount(mask[w]));
      }
      found += hits;
      if (hits > 0) ++io->contributing_leaf_accesses;
    } else {
      ++io->internal_accesses;
      for (uint32_t w = 0; w * 64 < n; ++w) {
        uint64_t m = mask[w];
        while (m) {
          const uint32_t i =
              w * 64 + static_cast<uint32_t>(std::countr_zero(m));
          m &= m - 1;
          const int64_t child = node.soa.id[i];
          if (!src.ChildInRange(child)) {
            if (st) *st = {ErrorKind::kCorruptStructure, 1 + id};
            continue;
          }
          if (src.clipped()) {
            ++io->clip_accesses;
            ++clips->tests;
            const ClipSpan run = src.Clips(child, tr);
            tr.Begin(kSpanClipsPrune);
            const bool pruned =
                clipbb::core::ClipsPruneQuery<kDim>(run, window);
            tr.End();
            if (pruned) {
              ++clips->prunes;
              continue;
            }
          }
          stack.push_back(child);
        }
      }
    }
    src.Release(id, tr);
  }
  return found;
}

/// Best-first kNN: the engine's frontier (same item type, comparator and
/// push order), so ties break identically and node accesses match.
template <typename Src>
size_t ReplayKnn(Src& src, const Vec& q, int k, Tracer& tr, IoStats* io,
                 Status* st, std::vector<ObjectId>* ids,
                 std::vector<double>* dist) {
  struct QueueItem {
    double dist2;
    bool is_object;
    int64_t id;
    bool operator>(const QueueItem& o) const { return dist2 > o.dist2; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push({0.0, false, src.root()});
  size_t found = 0;
  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (item.is_object) {
      ids->push_back(item.id);
      if (static_cast<int>(++found) == k) break;
      continue;
    }
    NodeRef node;
    if (!src.Acquire(item.id, tr, &node, st)) break;
    const uint32_t n = node.soa.n;
    dist->resize(n);
    if (node.leaf) {
      ++io->leaf_accesses;
    } else {
      ++io->internal_accesses;
    }
    if (node.leaf || !src.clipped()) {
      tr.Begin(kSpanMinDist);
      for (uint32_t i = 0; i < n; ++i) {
        (*dist)[i] = clipbb::rtree::SoaMinDist2<kDim>(node.soa, i, q);
      }
      tr.End(kNumSpanNames, n);
      for (uint32_t i = 0; i < n; ++i) {
        frontier.push({(*dist)[i], node.leaf, node.soa.id[i]});
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        const int64_t child = node.soa.id[i];
        if (!src.ChildInRange(child)) {
          if (st) *st = {ErrorKind::kCorruptStructure, 1 + item.id};
          continue;
        }
        ++io->clip_accesses;
        const ClipSpan run = src.Clips(child, tr);
        tr.Begin(kSpanMinDist);
        const double bound = clipbb::core::CbbMinDist2<kDim>(
            q, EntryRect(node.soa, i), run);
        tr.End(kNumSpanNames, 1);
        frontier.push({bound, false, child});
      }
    }
    src.Release(item.id, tr);
  }
  return found;
}

/// True when two IoStats agree on every logical counter.
inline bool SameLogicalIo(const IoStats& a, const IoStats& b) {
  return a.internal_accesses == b.internal_accesses &&
         a.leaf_accesses == b.leaf_accesses &&
         a.contributing_leaf_accesses == b.contributing_leaf_accesses &&
         a.clip_accesses == b.clip_accesses;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
