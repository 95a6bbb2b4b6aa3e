#pragma once
// Disjoint-set structures for SP-bags and the SP-hybrid local tier.
//
// DisjointSets: classic serial union-find with union by rank and optional
// path compression (the Section 7 ablation toggles compression to measure
// the alpha-vs-lg-n gap). Instrumented with find/step counters.
//
// AtomicDisjointSets: the concurrency-safe variant the paper's Section 7
// conjecture contemplates for the SP-hybrid local tier — rank-only unions
// (writer-side serialized by the owning worker) with either plain reads
// (kRankOnly) or CAS path halving on finds (kCasHalving, Anderson-Woll),
// which is safe under concurrent finds because halving only ever swings a
// parent pointer upward along its own path.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/atomics.hpp"

namespace spr::bags {

class DisjointSets {
 public:
  explicit DisjointSets(std::uint32_t n, bool path_compression = true)
      : compress_(path_compression), parent_(n), rank_(n, 0) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t make_set() {
    const auto id = static_cast<std::uint32_t>(parent_.size());
    parent_.push_back(id);
    rank_.push_back(0);
    return id;
  }

  std::uint32_t find(std::uint32_t x) {
    ++finds_;
    std::uint32_t root = x;
    while (parent_[root] != root) {
      root = parent_[root];
      ++find_steps_;
    }
    if (compress_) {
      while (parent_[x] != root) {
        const std::uint32_t next = parent_[x];
        parent_[x] = root;
        x = next;
      }
    }
    return root;
  }

  /// Unites the sets of a and b; returns the new root.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return ra;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    return ra;
  }

  bool same(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(parent_.size());
  }
  std::uint64_t finds() const { return finds_; }
  std::uint64_t find_steps() const { return find_steps_; }
  bool compression_enabled() const { return compress_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + parent_.capacity() * sizeof(std::uint32_t) +
           rank_.capacity() * sizeof(std::uint8_t);
  }

 private:
  bool compress_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::uint64_t finds_ = 0;
  std::uint64_t find_steps_ = 0;
};

class AtomicDisjointSets {
 public:
  enum class Mode : std::uint8_t {
    kRankOnly,    ///< shipped algorithm: union by rank, plain finds
    kCasHalving,  ///< Section 7 conjecture: CAS path halving on finds
  };

  explicit AtomicDisjointSets(std::uint32_t n, Mode mode = Mode::kRankOnly)
      : mode_(mode), parent_(n), rank_(n, 0) {
    for (std::uint32_t i = 0; i < n; ++i)
      parent_[i].store(i, std::memory_order_relaxed);
  }

  std::uint32_t find(std::uint32_t x) {
    for (;;) {
      std::uint32_t p = parent_[x].load(std::memory_order_acquire);
      if (p == x) return x;
      const std::uint32_t gp = parent_[p].load(std::memory_order_acquire);
      if (gp == p) return p;
      if (mode_ == Mode::kCasHalving) {
        // Swing x's parent up to its grandparent; losing the CAS is fine,
        // someone else moved it at least as high.
        parent_[x].compare_exchange_weak(p, gp, std::memory_order_acq_rel,
                                         std::memory_order_acquire);
      }
      x = gp;
    }
  }

  /// Union by rank. Caller must serialize unions (in SP-hybrid, unions of
  /// a trace's sets are performed only by the worker owning the trace).
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return ra;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb].store(ra, std::memory_order_release);
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    return ra;
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(parent_.size());
  }
  Mode mode() const { return mode_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) +
           parent_.size() * sizeof(spr::atomic<std::uint32_t>) +
           rank_.capacity() * sizeof(std::uint8_t);
  }

 private:
  Mode mode_;
  std::vector<spr::atomic<std::uint32_t>> parent_;
  std::vector<std::uint8_t> rank_;  ///< rank_[r] touched only while r is a
                                    ///< root owned by one completion chain
};

}  // namespace spr::bags
