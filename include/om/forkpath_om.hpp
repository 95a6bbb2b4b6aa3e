#pragma once
// ForkPathOm: coordination-free order maintenance with DePa-style fork
// paths (Westrick et al., "DePa: Simple, Provably Efficient, and
// Practical Order Maintenance for Task Parallelism"). An item's position
// is a path in an implicit binary tree, encoded as a bit string:
// insert_after(x) FORKS x's path p — x moves down to p·0, the new item
// takes p·1 — and an in-order traversal of the tree is exactly the list
// order. No labels are ever redistributed, so there is no relabel epoch,
// no lock and no writer-side seqlock: the only synchronization is one CAS
// on x's path pointer, which also linearizes same-pivot concurrent
// inserts (the loser re-forks below the winner's fresh path — still a
// correct insert-after).
//
// Paths are immutable persistent chunk lists: a Chunk packs up to 64 bits
// (LSB first) and points at its parent chunk; a chunk becomes a parent
// only when full, so every non-head chunk holds exactly 64 bits and
// bit i of a path lives in word i/64 of the root-first chain. Extending
// a path allocates at most one chunk and shares the entire prefix.
//
// precedes(a, b) loads both paths, compares, and validates by reloading:
// a retry is needed only when insert_after(a) or insert_after(b) raced
// the comparison (their paths are the only mutable state). Comparison
// walks the two chains root-first 64 bits a word: first differing bit
// decides (0 = left = earlier); a strict prefix p of q orders by q's
// first bit past p (q below-left of p means q earlier).
//
// Trade-off vs the relabeling backends, measured in the shootout: inserts
// are the cheapest of the three (one allocation + one CAS), but a chain
// of n serial insert_afters on the same lineage grows paths to n bits, so
// precedes degrades to O(n/64) word compares on adversarial (purely
// sequential) histories. Fork-join programs fork evenly and stay shallow.

#include <atomic>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "om/backend.hpp"
#include "util/atomics.hpp"

namespace spr::om {

class ForkPathOm {
 public:
  static constexpr const char* kName = "fork-path";

  /// Immutable once published. `bits` holds `nbits` path bits LSB-first;
  /// `parent` chains toward the root and is always full (64 bits), so
  /// `depth` (total bits root..here) locates any bit in O(1) words.
  struct Chunk {
    const Chunk* parent = nullptr;
    std::uint64_t bits = 0;
    std::uint32_t nbits = 0;
    std::uint64_t depth = 0;
    Chunk* next_alloc = nullptr;  ///< Treiber list for reclamation only
  };

  struct Item {
    spr::atomic<const Chunk*> path{nullptr};  ///< nullptr = empty path
    Item* next_alloc = nullptr;
  };

  /// Wraps the path tip; ordered by the in-order tree comparison.
  struct Label {
    const Chunk* tip = nullptr;
    friend bool operator==(const Label& a, const Label& b) {
      return path_compare(a.tip, b.tip) == 0;
    }
    friend std::weak_ordering operator<=>(const Label& a, const Label& b) {
      const int c = path_compare(a.tip, b.tip);
      return c < 0    ? std::weak_ordering::less
             : c > 0 ? std::weak_ordering::greater
                      : std::weak_ordering::equivalent;
    }
  };

  /// In-order binary-tree comparison of two paths: <0 means p's item is
  /// earlier. Equal paths (including both empty) compare 0. Public so
  /// Label's namespace-scope friend operators can reach it.
  static int path_compare(const Chunk* p, const Chunk* q);

  ForkPathOm() { base_ = new_item(); }
  ForkPathOm(const ForkPathOm&) = delete;
  ForkPathOm& operator=(const ForkPathOm&) = delete;

  ~ForkPathOm() {
    Chunk* c = chunk_allocs_.load(std::memory_order_acquire);
    while (c != nullptr) {
      Chunk* nx = c->next_alloc;
      delete c;
      c = nx;
    }
    Item* it = item_allocs_.load(std::memory_order_acquire);
    while (it != nullptr) {
      Item* nx = it->next_alloc;
      delete it;
      it = nx;
    }
  }

  /// Sentinel item that precedes every inserted item (its path only ever
  /// gains 0-bits, keeping it leftmost).
  Item* base() const { return base_; }

  Item* insert_after(Item* x) {
    Item* it = new_item();
    const Chunk* p = x->path.load(std::memory_order_acquire);
    for (;;) {
      const Chunk* left = extend(p, 0);
      const Chunk* right = extend(p, 1);
      // The CAS both publishes x's move to p·0 and linearizes same-pivot
      // races: a loser observed the winner's p·0 and re-forks below it,
      // landing between x and the winner's item — a valid insert-after.
      if (x->path.compare_exchange_strong(p, left, std::memory_order_release,
                                          std::memory_order_acquire)) {
        it->path.store(right, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        return it;
      }
      cas_retries_.fetch_add(1, std::memory_order_relaxed);
      // Abandoned chunks stay on the alloc list; the dtor reclaims them.
    }
  }

  /// Lock-free order query. Validation by reloading both paths is sound:
  /// the only writes that could reorder a relative to b are
  /// insert_after(a) / insert_after(b), and both CAS the path before the
  /// new item is published anywhere.
  bool precedes(const Item* a, const Item* b) const {
    if (a == b) return false;
    for (;;) {
      const Chunk* pa = a->path.load(std::memory_order_acquire);
      const Chunk* pb = b->path.load(std::memory_order_acquire);
      const int c = path_compare(pa, pb);
      if (a->path.load(std::memory_order_acquire) == pa &&
          b->path.load(std::memory_order_acquire) == pb)
        return c < 0;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Diagnostic position snapshot (see om/backend.hpp).
  Label label(const Item* it) const {
    return Label{it->path.load(std::memory_order_acquire)};
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  /// No locks anywhere on the insert path.
  std::uint64_t lock_waits() const { return 0; }
  std::uint64_t query_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t cas_retries() const {
    return cas_retries_.load(std::memory_order_relaxed);
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) +
           chunk_count_.load(std::memory_order_relaxed) * sizeof(Chunk) +
           size() * sizeof(Item);
  }

 private:
  /// Root-first view of a path chain. Non-head chunks are always full,
  /// so chunk i covers bits [64*i, 64*i+64) except possibly the last.
  struct Chain {
    static constexpr std::size_t kInline = 64;  // 4096 path bits
    const Chunk* inline_buf[kInline];
    std::vector<const Chunk*> heap;
    const Chunk** chunks = nullptr;
    std::size_t n = 0;
    std::uint64_t depth = 0;

    void collect(const Chunk* tip) {
      depth = tip != nullptr ? tip->depth : 0;
      std::size_t count = 0;
      for (const Chunk* c = tip; c != nullptr; c = c->parent) ++count;
      n = count;
      if (count <= kInline) {
        chunks = inline_buf;
      } else {
        heap.resize(count);
        chunks = heap.data();
      }
      std::size_t i = count;
      for (const Chunk* c = tip; c != nullptr; c = c->parent)
        chunks[--i] = c;
    }

    std::uint64_t word(std::size_t i) const { return chunks[i]->bits; }
    bool bit(std::uint64_t i) const {
      return ((chunks[i / 64]->bits >> (i % 64)) & 1) != 0;
    }
  };

  /// Returns p·bit as a fresh chunk sharing p's prefix.
  const Chunk* extend(const Chunk* p, unsigned bit) {
    Chunk* c = new Chunk;
    if (p == nullptr) {
      c->bits = bit;
      c->nbits = 1;
      c->depth = 1;
    } else if (p->nbits < 64) {
      c->parent = p->parent;
      c->bits = p->bits | (std::uint64_t{bit} << p->nbits);
      c->nbits = p->nbits + 1;
      c->depth = p->depth + 1;
    } else {  // p is full: it becomes a parent (stays always-full)
      c->parent = p;
      c->bits = bit;
      c->nbits = 1;
      c->depth = p->depth + 1;
    }
    Chunk* head = chunk_allocs_.load(std::memory_order_relaxed);
    do {
      c->next_alloc = head;
    } while (!chunk_allocs_.compare_exchange_weak(
        head, c, std::memory_order_release, std::memory_order_relaxed));
    chunk_count_.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  Item* new_item() {
    Item* it = new Item;
    Item* head = item_allocs_.load(std::memory_order_relaxed);
    do {
      it->next_alloc = head;
    } while (!item_allocs_.compare_exchange_weak(
        head, it, std::memory_order_release, std::memory_order_relaxed));
    return it;
  }

  Item* base_ = nullptr;
  spr::atomic<Chunk*> chunk_allocs_{nullptr};
  spr::atomic<Item*> item_allocs_{nullptr};
  spr::atomic<std::size_t> size_{1};
  spr::atomic<std::size_t> chunk_count_{0};
  spr::atomic<std::uint64_t> cas_retries_{0};
  mutable spr::atomic<std::uint64_t> retries_{0};
};

inline int ForkPathOm::path_compare(const Chunk* p, const Chunk* q) {
  Chain cp, cq;
  cp.collect(p);
  cq.collect(q);
  const std::uint64_t common = cp.depth < cq.depth ? cp.depth : cq.depth;
  for (std::uint64_t i = 0; i < common; i += 64) {
    const std::uint64_t take = common - i < 64 ? common - i : 64;
    const std::uint64_t mask = take == 64 ? ~0ULL : (1ULL << take) - 1;
    const std::uint64_t wp = cp.word(i / 64) & mask;
    const std::uint64_t wq = cq.word(i / 64) & mask;
    if (wp != wq) {
      const unsigned k = static_cast<unsigned>(std::countr_zero(wp ^ wq));
      // First differing bit: 0 branches left (earlier in-order).
      return ((wp >> k) & 1) == 0 ? -1 : 1;
    }
  }
  if (cp.depth == cq.depth) return 0;
  if (cp.depth < cq.depth) {
    // p is an ancestor of q: q left of p iff q descends left.
    return cq.bit(cp.depth) ? -1 : 1;
  }
  return cp.bit(cq.depth) ? 1 : -1;
}

static_assert(Backend<ForkPathOm>);

}  // namespace spr::om
