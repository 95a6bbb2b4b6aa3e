#pragma once
// Block-granular shadow memory: the one shadow layer every deployment
// runs — the in-process detectors (race/detector.hpp, race/allsets.hpp),
// the streaming service (race/stream/service.hpp) and the SP-hybrid
// workers (sphybrid/worker.hpp).
//
// BlockTable<Protocol> maps (stream, loc >> kBlockBits) to a block of
// kBlockCells = 32 consecutive cells; the low kBlockBits of a location
// index its cell inside the block. Contiguous locations therefore share
// one directory lookup per block and sit in adjacent cells, so array
// sweeps stay cache-local. The directory is an array of chain heads
// (blocks link to the next block of their bucket) that doubles before
// it would hold more blocks than buckets, so past its first 16 buckets
// it costs fewer than two 8-byte slots per block; it allocates nothing
// before the first access. Blocks are keyed by stream too: streams are
// independent programs that share the table, never verdicts. The table
// owns its Protocol, which holds whatever state the cells share
// (ALL-SETS' entry pool). It takes no lock: the serial detectors own
// one table each.
//
// Sparse input is the expensive case: a location alone in its block
// costs a whole block (kBlockBytes, 408 B for the determinacy protocol)
// plus its directory share, against ~13 B per location for a dense
// array. tests/race_stream_test.cpp checks both.
//
// ShardedShadow<Protocol> is an array of {spr::mutex, BlockTable} for
// the shadows written by more than one thread: the service's client
// streams and the SP-hybrid workers. The shard is the high bits of
// mix64(loc >> kBlockBits), so a block never straddles shards; inside
// the shard the table's own multiplicative hash picks the bucket. The
// mutex is the atomics-policy type, so the model checker can drive the
// locking (see tests/mc_test.cpp's shard-contention scenarios).
//
// The two protocols:
//   DeterminacyProtocol - the writer + two-reader rule of
//                         race/shadow_protocol.hpp, one ShadowCell per
//                         location.
//   AllSetsProtocol     - ALL-SETS (Cheng et al.): per location a pruned
//                         history of (lockset, writer?) entries, each
//                         remembering the most recent and one sticky
//                         parallel thread, drawn from the table's pool.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "race/shadow_protocol.hpp"
#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"
#include "util/arena.hpp"
#include "util/atomics.hpp"

namespace spr::race::stream {

inline constexpr std::uint32_t kBlockBits = 5;
inline constexpr std::uint64_t kBlockCells = std::uint64_t{1} << kBlockBits;

namespace detail {

/// splitmix64 finalizer: full-avalanche mixing, so consecutive block
/// numbers spread evenly across shards.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// A snapshot of a shadow's size. Read on demand from the tables'
/// own fields; nothing on the access path counts.
struct ShadowStats {
  std::size_t blocks = 0;           ///< blocks allocated
  std::size_t directory_slots = 0;  ///< directory buckets allocated
  std::size_t memory_bytes = 0;     ///< everything the shadow holds
};

/// Unlocked block table keyed by (stream, loc >> kBlockBits).
/// `Protocol` names the cell type and applies one access to a cell.
template <typename Protocol>
class BlockTable {
  struct Block {
    std::unique_ptr<Block> next;  ///< next block of the same bucket
    std::uint64_t key = 0;        ///< loc >> kBlockBits
    StreamId stream = kNoStream;
    typename Protocol::Cell cells[kBlockCells]{};
  };

 public:
  /// What one block and one directory slot cost, for stating bounds.
  static constexpr std::size_t kBlockBytes = sizeof(Block);
  static constexpr std::size_t kSlotBytes = sizeof(std::unique_ptr<Block>);

  BlockTable() = default;
  BlockTable(const BlockTable&) = delete;
  BlockTable& operator=(const BlockTable&) = delete;
  /// Unlinks each chain block by block: a service client picks its own
  /// addresses and can collide them into one long chain, which the
  /// blocks' recursive destructors would walk on the stack.
  ~BlockTable() {
    for (std::size_t i = 0; i < cap_; ++i)
      while (buckets_[i] != nullptr) buckets_[i] = std::move(buckets_[i]->next);
  }

  /// Applies one access by thread `v` to its location's cell.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    Block& b = block(s, a.loc >> kBlockBits);
    protocol_.apply(b.cells[a.loc & (kBlockCells - 1)], a, v, serial,
                    race_count);
  }

  ShadowStats stats() const {
    return {count_, cap_,
            sizeof(*this) + cap_ * kSlotBytes + count_ * kBlockBytes +
                protocol_.memory_bytes()};
  }

  std::size_t memory_bytes() const { return stats().memory_bytes; }

 private:
  /// Fibonacci hashing: the top bits of the key times 2^64 / phi, one
  /// multiply that still spreads consecutive block numbers over distinct
  /// buckets. ShardedShadow picks shards with mix64 instead, so the keys
  /// of one shard do not share their bucket bits.
  static std::size_t bucket(StreamId s, std::uint64_t key, unsigned shift) {
    return static_cast<std::size_t>(
        ((key ^ (static_cast<std::uint64_t>(s) << 32)) *
         0x9e3779b97f4a7c15ULL) >>
        shift);
  }

  Block& block(StreamId s, std::uint64_t key) {
    if (cap_ != 0)
      for (Block* b = buckets_[bucket(s, key, shift_)].get(); b != nullptr;
           b = b->next.get())
        if (b->key == key && b->stream == s) return *b;
    if (count_ == cap_) grow();  // keeps at most one block per bucket
    std::unique_ptr<Block>& head = buckets_[bucket(s, key, shift_)];
    auto fresh = std::make_unique<Block>();
    fresh->key = key;
    fresh->stream = s;
    fresh->next = std::move(head);
    head = std::move(fresh);
    ++count_;
    return *head;
  }

  /// Doubles the directory, relinking every block; blocks never move.
  void grow() {
    const std::size_t ncap = cap_ == 0 ? 16 : cap_ * 2;
    const unsigned nshift = cap_ == 0 ? 60 : shift_ - 1;
    std::unique_ptr<std::unique_ptr<Block>[]> next(
        new std::unique_ptr<Block>[ncap]);
    for (std::size_t i = 0; i < cap_; ++i) {
      while (buckets_[i] != nullptr) {
        std::unique_ptr<Block> b = std::move(buckets_[i]);
        buckets_[i] = std::move(b->next);
        std::unique_ptr<Block>& dst = next[bucket(b->stream, b->key, nshift)];
        b->next = std::move(dst);
        dst = std::move(b);
      }
    }
    buckets_ = std::move(next);
    cap_ = ncap;
    shift_ = nshift;
  }

  std::unique_ptr<std::unique_ptr<Block>[]> buckets_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(cap_)
  Protocol protocol_;
};

/// One BlockTable per shard, each under its own lock.
template <typename Protocol>
class ShardedShadow {
 public:
  explicit ShardedShadow(std::uint32_t shards = 16)
      : bits_(log2_ceil(shards)), shards_(new Shard[std::size_t{1} << bits_]) {}

  /// Applies one access under the owning shard's lock. `serial` is
  /// called for SP queries while the lock is held, which is safe because
  /// per-stream SP state has a single writer (the stream's submitter)
  /// and queries never mutate it.
  template <typename SerialFn>
  void apply(StreamId s, const tree::Access& a, tree::ThreadId v,
             SerialFn&& serial, std::uint64_t& race_count) {
    Shard& sh = shards_[shard_of(a.loc)];
    spr::lock_guard<spr::mutex> lock(sh.mu);
    sh.table.apply(s, a, v, serial, race_count);
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return bits_ == 0 ? 0
                      : static_cast<std::uint32_t>(
                            detail::mix64(loc >> kBlockBits) >> (64 - bits_));
  }

  /// Sums the shards' tables, each read under its lock.
  ShadowStats stats() const {
    ShadowStats s{0, 0, sizeof(*this)};
    for (std::size_t i = 0; i < shard_count(); ++i) {
      spr::lock_guard<spr::mutex> lock(shards_[i].mu);
      const ShadowStats t = shards_[i].table.stats();
      s.blocks += t.blocks;
      s.directory_slots += t.directory_slots;
      s.memory_bytes +=
          sizeof(Shard) - sizeof(BlockTable<Protocol>) + t.memory_bytes;
    }
    return s;
  }

  std::size_t memory_bytes() const { return stats().memory_bytes; }

 private:
  // Cache-line aligned so workers locking neighbouring shards do not
  // share a line.
  struct alignas(64) Shard {
    spr::mutex mu;
    BlockTable<Protocol> table;
  };

  static std::uint32_t log2_ceil(std::uint32_t x) {
    std::uint32_t b = 0;
    while ((std::uint32_t{1} << b) < x) ++b;
    return b;
  }

  std::size_t shard_count() const { return std::size_t{1} << bits_; }

  std::uint32_t bits_;
  std::unique_ptr<Shard[]> shards_;
};

/// The determinacy protocol: one ShadowCell per location.
struct DeterminacyProtocol {
  using Cell = ShadowCell;

  template <typename SerialFn>
  void apply(Cell& c, const tree::Access& a, tree::ThreadId v,
             SerialFn& serial, std::uint64_t& race_count) {
    shadow_apply(c, a, v, serial, race_count);
  }
  std::size_t memory_bytes() const { return 0; }
};

/// ALL-SETS: per location a list of history entries, one per
/// (lockset, write) pair seen there.
class AllSetsProtocol {
  struct Entry {
    std::uint64_t locks = 0;
    bool write = false;
    tree::ThreadId t1 = tree::kNoThread;  ///< most recent accessor
    tree::ThreadId t2 = tree::kNoThread;  ///< sticky parallel accessor
    Entry* next = nullptr;
  };

 public:
  using Cell = Entry*;  ///< history head

  /// Race-checks against every entry whose lockset is disjoint (with at
  /// least one writer side), then files the access under its
  /// (lockset, write) entry. Keying the history this way bounds
  /// per-access work by the number of distinct locksets used at the
  /// location.
  template <typename SerialFn>
  void apply(Cell& head, const tree::Access& a, tree::ThreadId v,
             SerialFn& serial, std::uint64_t& race_count) {
    for (Entry* e = head; e != nullptr; e = e->next) {
      const bool conflicting = a.write || e->write;
      const bool unguarded = (e->locks & a.locks) == 0;
      if (!conflicting || !unguarded) continue;
      if (!serial(e->t1, v)) ++race_count;
      if (!serial(e->t2, v)) ++race_count;
    }
    for (Entry* e = head; e != nullptr; e = e->next) {
      if (e->locks != a.locks || e->write != a.write) continue;
      if (e->t1 == tree::kNoThread || serial(e->t1, v)) {
        e->t1 = v;
      } else {
        if (e->t2 == tree::kNoThread || serial(e->t2, v)) e->t2 = e->t1;
        e->t1 = v;
      }
      return;
    }
    Entry* fresh = pool_.create();
    fresh->locks = a.locks;
    fresh->write = a.write;
    fresh->t1 = v;
    fresh->next = head;
    head = fresh;
  }

  std::size_t memory_bytes() const { return pool_.memory_bytes(); }

 private:
  util::Pool<Entry> pool_;
};

using DeterminacyShadow = ShardedShadow<DeterminacyProtocol>;
using AllSetsShadow = ShardedShadow<AllSetsProtocol>;

}  // namespace spr::race::stream
