#pragma once
// Sharded shadow memory: the one shadow layer every deployment runs — the
// in-process detectors (race/detector.hpp, race/allsets.hpp), the
// streaming service (race/stream/service.hpp) and the SP-hybrid workers
// (sphybrid/worker.hpp).
//
// ShadowTable<Cell> is an open-addressed, linear-probing array of structs
// {loc, stream, cell}: one probe touches one slot, and a cell's whole
// state shares that slot's cache line. The table allocates nothing until
// its first insert and frees the old array when it doubles. Cells are
// keyed by (stream, location): streams are independent programs that
// share the shard infrastructure, never verdicts.
//
// ShardedShadow<Protocol> hash-partitions locations across a power-of-two
// number of shards, each a ShadowTable plus any per-shard protocol state
// behind a spr::mutex (the atomics-policy type, so the model checker can
// drive the locking — see tests/mc_test.cpp's shard-contention
// scenarios). The shard comes from the high bits of mix64(loc) and the
// slot from the low bits of cell_hash(stream, loc), so the keys of one
// shard still spread over all of its slots.
//
// The two protocols:
//   DeterminacyShadow - the writer + two-reader rule of
//                       race/shadow_protocol.hpp, one ShadowCell per key.
//   AllSetsShadow     - ALL-SETS (Cheng et al.): per key a pruned history
//                       of (lockset, writer?) entries, each remembering
//                       the most recent and one sticky parallel thread,
//                       drawn from a per-shard free-list pool.

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

namespace detail {

/// splitmix64 finalizer: full-avalanche location mixing, so contiguous
/// array fills spread evenly across shards and table slots.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t cell_hash(StreamId s, std::uint64_t loc) {
  return mix64(loc ^ (static_cast<std::uint64_t>(s) << 32));
}

}  // namespace detail

/// Open-addressed AoS table keyed by (stream, loc). Grows by doubling at
/// 3/4 load; the superseded array is freed on the spot.
template <typename Cell>
class ShadowTable {
 public:
  Cell& find_or_insert(StreamId s, std::uint64_t loc) {
    if (count_ * 4 >= cap_ * 3) grow();
    std::size_t i = detail::cell_hash(s, loc) & (cap_ - 1);
    while (slots_[i].stream != kNoStream) {
      if (slots_[i].stream == s && slots_[i].loc == loc) return slots_[i].cell;
      i = (i + 1) & (cap_ - 1);
    }
    slots_[i].stream = s;
    slots_[i].loc = loc;
    ++count_;
    return slots_[i].cell;
  }

  std::size_t memory_bytes() const { return cap_ * sizeof(Slot); }

 private:
  struct Slot {
    std::uint64_t loc = 0;
    StreamId stream = kNoStream;
    Cell cell{};
  };

  void grow() {
    const std::size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    std::unique_ptr<Slot[]> next(new Slot[ncap]);
    for (std::size_t i = 0; i < cap_; ++i) {
      const Slot& old = slots_[i];
      if (old.stream == kNoStream) continue;
      std::size_t j = detail::cell_hash(old.stream, old.loc) & (ncap - 1);
      while (next[j].stream != kNoStream) j = (j + 1) & (ncap - 1);
      next[j] = old;
    }
    slots_ = std::move(next);
    cap_ = ncap;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
};

/// One ShadowTable per shard, each under its own lock. `Protocol` names
/// the cell type and applies one access to a cell; one Protocol object
/// lives in each shard for whatever state the cells share (ALL-SETS'
/// entry pool).
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
    sh.protocol.apply(sh.table.find_or_insert(s, a.loc), a, v, serial,
                      race_count);
  }

  std::uint32_t shard_of(std::uint64_t loc) const {
    return bits_ == 0 ? 0
                      : static_cast<std::uint32_t>(detail::mix64(loc) >>
                                                   (64 - bits_));
  }

  std::size_t memory_bytes() const {
    std::size_t n = sizeof(*this);
    for (std::size_t i = 0; i < shard_count(); ++i)
      n += sizeof(Shard) + shards_[i].table.memory_bytes() +
           shards_[i].protocol.memory_bytes();
    return n;
  }

 private:
  // Cache-line aligned so workers locking neighbouring shards do not
  // share a line.
  struct alignas(64) Shard {
    spr::mutex mu;
    ShadowTable<typename Protocol::Cell> table;
    Protocol protocol;
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

/// The determinacy protocol: one ShadowCell per key.
struct DeterminacyProtocol {
  using Cell = ShadowCell;

  template <typename SerialFn>
  void apply(Cell& c, const tree::Access& a, tree::ThreadId v,
             SerialFn& serial, std::uint64_t& race_count) {
    shadow_apply(c, a, v, serial, race_count);
  }
  std::size_t memory_bytes() const { return 0; }
};

/// ALL-SETS: per key a list of history entries, one per (lockset, write)
/// pair seen at the location.
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
