#pragma once
// SP-bags on the SP parse tree (Feng-Leiserson style; Figure 3 row 3):
// Theta(1) space per thread, Theta(alpha) per thread creation and query,
// via union-find.
//
// Invariant maintained by the serial walk: at the moment thread v
// executes, the completed threads partition into one disjoint set per
// completed subtree hanging off the root-to-v path. Such a subtree is the
// left child of some ancestor A of v, and its set was classified at
// between_children(A): S if A is an S-node (everything in it precedes v),
// P if A is a P-node (everything in it is parallel to v). A query for a
// completed thread u is therefore one find() plus a flag read — and the
// flag at find(u)'s root was written exactly when the walk crossed
// LCA(u, v).
//
// Queries are only meaningful for completed u against the currently
// executing v — the on-the-fly discipline race detectors follow.
//
// The left-subtree sets waiting for their right siblings sit on a stack
// (pushed at between_children, popped at leave_internal), so beyond the
// union-find the structure holds one word per open P/S-node of the walk,
// not one per parse-tree node.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spbags/dsu.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::bags {

class SpBags : public tree::SpMaintenance {
 public:
  explicit SpBags(const tree::ParseTree& t, bool path_compression = true)
      : dsu_(t.leaf_count(), path_compression),
        serial_flag_(t.leaf_count(), 0) {}

  void leave_leaf(const tree::Node& n) override { completed_ = n.thread; }

  void between_children(const tree::Node& n) override {
    // completed_ is the set of n's just-finished left subtree.
    const std::uint32_t root = dsu_.find(completed_);
    serial_flag_[root] = n.kind == tree::NodeKind::kSeries ? 1 : 0;
    left_sets_.push_back(completed_);
  }

  void leave_internal(const tree::Node&) override {
    // Merge the left and right subtree sets; the union's classification
    // is assigned later by the ancestor whose walk crosses it.
    completed_ = dsu_.unite(left_sets_.back(), completed_);
    left_sets_.pop_back();
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    if (u == v) return false;
    (void)v;  // valid only for completed u vs the current thread
    return serial_flag_[dsu_.find(u)] != 0;
  }

  std::size_t memory_bytes() const override {
    return sizeof(*this) + dsu_.memory_bytes() +
           serial_flag_.capacity() * sizeof(std::uint8_t) +
           left_sets_.capacity() * sizeof(std::uint32_t);
  }

  const DisjointSets& dsu() const { return dsu_; }

 private:
  DisjointSets dsu_;
  std::vector<std::uint8_t> serial_flag_;  ///< per DSU root: 1 = S-bag
  std::vector<std::uint32_t> left_sets_;   ///< open nodes' left subtree sets
  std::uint32_t completed_ = 0;  ///< set of the last completed subtree
};

}  // namespace spr::bags
