#pragma once
// SP-order (Sections 2-3 of the paper): on-the-fly SP maintenance with
// Theta(1) time per thread creation and Theta(1) time per query, using two
// order-maintenance lists holding an English and a Hebrew ordering of the
// threads.
//
// Every subtree of the SP parse tree owns one item in each list. When the
// walk enters an internal node X whose subtree owns items (e, h), the two
// child subtrees split them (split() below, the one place the rule lives):
//   English (serial order): left keeps e, right gets insert_after(e) —
//     for both S- and P-nodes, since English order is the serial order.
//   Hebrew: for an S-node, left keeps h and right gets insert_after(h);
//     for a P-node the children swap — right keeps h and left gets
//     insert_after(h) — so parallel siblings appear in the *opposite*
//     order in the Hebrew list.
// All descendants' items are inserted immediately after their subtree's
// base item, so the region between a subtree's item and its right
// neighbor stays contiguous; the split rule above is exactly Theta(1) OM
// inserts per parse-tree node (Theorem 5: O(n) total construction).
//
// Because the walk runs in English order, only the open forks' right
// branches are waiting for their slots: those sit on a stack (pushed at
// the fork, taken at the switch, popped at the join), so beyond the OM
// lists the structure holds one slot per thread and one per open fork,
// never one per parse-tree node, and it never needs the tree itself. The
// same class therefore runs on the event stream of race/stream/event.hpp
// (on_fork / on_switch / on_join / on_thread_begin; the streaming service
// names it StreamingSpOrder) and on the serial walk, whose callbacks are
// one-line forwards to those events.
//
// Query (Theorem 4's characterization): for threads u != v,
//   u precedes v  iff  Eng(u) < Eng(v) and Heb(u) < Heb(v);
// if the two lists disagree, LCA(u, v) is a P-node and u || v.

#include <cstddef>
#include <vector>

#include "om/order_list.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::order {

class SpOrder : public tree::SpMaintenance {
 public:
  SpOrder() : cur_{english_.insert_front(), hebrew_.insert_front()} {}

  /// Sizes the per-thread table for `t`; the walk never reads the tree.
  explicit SpOrder(const tree::ParseTree& t) : SpOrder() {
    thread_slots_.resize(t.leaf_count());
  }

  // Event vocabulary, in English order.
  void on_fork(bool series) { pending_.push_back(split(cur_, series)); }
  void on_switch() { cur_ = pending_.back(); }
  void on_join() { pending_.pop_back(); }
  void on_thread_begin(tree::ThreadId t) {
    if (thread_slots_.size() <= t) thread_slots_.resize(t + 1);
    thread_slots_[t] = cur_;
  }

  // Serial-walk callbacks (leave_leaf has no event and stays a no-op).
  void enter_internal(const tree::Node& n) override {
    on_fork(n.kind == tree::NodeKind::kSeries);
  }
  void between_children(const tree::Node&) override { on_switch(); }
  void leave_internal(const tree::Node&) override { on_join(); }
  void visit_leaf(const tree::Node& n) override { on_thread_begin(n.thread); }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    return ordered(thread_slots_[u], thread_slots_[v]);
  }

  std::size_t memory_bytes() const override {
    return sizeof(*this) + english_.memory_bytes() + hebrew_.memory_bytes() +
           pending_.capacity() * sizeof(Slot) +
           thread_slots_.capacity() * sizeof(Slot);
  }

  const om::OrderList::Stats& english_stats() const {
    return english_.stats();
  }
  const om::OrderList::Stats& hebrew_stats() const { return hebrew_.stats(); }

 protected:
  struct Slot {
    om::OrderList::Item* eng = nullptr;
    om::OrderList::Item* heb = nullptr;
  };

  /// The split rule: `cur`, the slot of the subtree being entered,
  /// becomes its left child's slot, and the right child's is returned.
  /// It mints two items: the right child's English item and the new
  /// Hebrew item (the right child's at an S-node, the left child's at a
  /// P-node).
  Slot split(Slot& cur, bool series) {
    Slot right{english_.insert_after(cur.eng), cur.heb};
    if (series)
      right.heb = hebrew_.insert_after(cur.heb);
    else
      cur.heb = hebrew_.insert_after(cur.heb);
    return right;
  }

  /// Theorem 4: a's thread precedes b's iff both lists agree. Equal
  /// slots precede in neither list, so u == v answers false.
  bool ordered(const Slot& a, const Slot& b) const {
    return english_.precedes(a.eng, b.eng) && hebrew_.precedes(a.heb, b.heb);
  }

  om::OrderList english_;
  om::OrderList hebrew_;
  Slot cur_;                        ///< slot of the subtree being entered
  std::vector<Slot> pending_;       ///< right-branch slots of open forks
  std::vector<Slot> thread_slots_;  ///< per thread, set at thread begin
};

}  // namespace spr::order
