#pragma once
// Serial on-the-fly determinacy-race detection (Corollary 6). The walker
// executes the program serially, drives its SP-maintenance backend
// through the tree callbacks (so strictly on-the-fly backends like
// SP-bags stay correct), and applies each access of a leaf to the shadow
// memory while that leaf is the executing thread. The walk is trusted,
// so nothing is validated: the untrusted path is the streaming service
// (race/stream/service.hpp). Both run the same block table
// (race/stream/shadow_shards.hpp), with the in-process walk as stream 0;
// the walk is serial, so the detector owns one table outright, with no
// shards and no lock.
//
// The shadow protocol itself (last writer + recent reader + sticky
// parallel reader) lives in race/shadow_protocol.hpp; its soundness and
// completeness on serial replays is certified exhaustively by
// tests/race_completeness_test.cpp.

#include <cstdint>

#include "race/shadow_protocol.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"
#include "util/timing.hpp"

namespace spr::race {

namespace detail {

/// Templated on the SP algorithm so detection can run over any backend
/// (tree::SpMaintenance subclasses, a concrete SpOrder, or a templated
/// hybrid facade) with statically bound — devirtualized — queries, and
/// on the shadow table (a stream::BlockTable over the determinacy or
/// ALL-SETS protocol).
/// SpAlgo needs enter_internal / between_children / leave_internal /
/// visit_leaf / leave_leaf / precedes.
template <typename SpAlgo, typename Shadow>
class DetectVisitor final : public tree::WalkVisitor {
 public:
  DetectVisitor(const tree::ParseTree& t, SpAlgo& algo)
      : tree_(t), algo_(algo) {}

  void enter_internal(const tree::Node& n) override { algo_.enter_internal(n); }
  void between_children(const tree::Node& n) override {
    algo_.between_children(n);
  }
  void leave_internal(const tree::Node& n) override { algo_.leave_internal(n); }

  void visit_leaf(const tree::Node& n) override {
    algo_.visit_leaf(n);
    checksum ^= util::spin_work(n.work);
    // SP queries for these accesses are issued while the leaf is the
    // currently executing thread, the contract strictly on-the-fly
    // backends depend on.
    const auto serial = counted_serial(algo_, report.queries);
    for (const tree::Access& a : tree_.accesses(n.thread))
      shadow_.apply(/*stream=*/0, a, n.thread, serial, report.race_count);
  }
  void leave_leaf(const tree::Node& n) override { algo_.leave_leaf(n); }

  RaceReport report;
  std::uint64_t checksum = 0;

 private:
  const tree::ParseTree& tree_;
  SpAlgo& algo_;
  Shadow shadow_;
};

/// Shared driver for the determinacy and ALL-SETS entry points.
template <typename Shadow, typename SpAlgo>
inline RaceReport detect(const tree::ParseTree& t, SpAlgo& algo) {
  DetectVisitor<SpAlgo, Shadow> v(t, algo);
  serial_walk(t, v);
  util::do_not_optimize(v.checksum);
  return v.report;
}

}  // namespace detail

/// Runs serial on-the-fly determinacy-race detection over `t`, using a
/// fresh `algo` (any SpMaintenance backend) for SP queries.
template <typename SpAlgo>
inline RaceReport detect_races(const tree::ParseTree& t, SpAlgo& algo) {
  using Table = stream::BlockTable<stream::DeterminacyProtocol>;
  return detail::detect<Table>(t, algo);
}

}  // namespace spr::race
