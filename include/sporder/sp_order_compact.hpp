#pragma once
// SP-order, compact variant (footnote 2 of the paper): the OM items of a
// fully executed subtree can be RECLAIMED, because on-the-fly queries
// only ever compare a finished thread u against the currently executing
// thread v, and every thread inside a completed subtree relates to any
// thread outside it the same way (their LCA, and hence the P/S verdict,
// is the same for the whole subtree). So once a subtree completes, its
// whole region in both OM lists collapses to the subtree's base items.
//
// Implementation: SpOrder's split rule, with one stack frame per open
// fork holding the subtree's base slot, the two items the split minted,
// and (from the switch on) the thread set of the completed left subtree.
// At the join the left and right thread sets unite in a union-find over
// threads, the united set maps to the base slot (the per-thread slot
// table doubles as the per-set one, read at the set's root), and the
// minted items are erased from the OrderLists — real deletion, via
// OrderList::erase. A query resolves a thread through find(), landing on
// its deepest completed subtree's base slot. Live items are therefore
// O(spine + executing leaves) instead of O(n).
//
// The trade-off: queries are only valid ON-THE-FLY (v currently
// executing). Post-walk all-pairs queries would compare two collapsed
// subtrees against each other, which footnote 2 explicitly gives up; the
// plain SpOrder keeps that ability.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spbags/dsu.hpp"
#include "sporder/sp_order.hpp"

namespace spr::order {

class SpOrderCompact final : public SpOrder {
 public:
  SpOrderCompact() = default;
  explicit SpOrderCompact(const tree::ParseTree& t)
      : SpOrder(t), sets_(t.leaf_count()) {}

  // Event vocabulary, in English order (hides SpOrder's).
  void on_fork(bool series) {
    const Slot base = cur_;
    const Slot right = split(cur_, series);
    frames_.push_back({base, {right.eng, series ? right.heb : cur_.heb},
                       series});
  }
  void on_switch() {
    Frame& f = frames_.back();
    f.left_set = completed_;
    cur_ = {f.minted.eng, f.series ? f.minted.heb : f.base.heb};
  }
  void on_join() {
    // Collapse the completed subtree onto its base items; the items its
    // fork minted die.
    const Frame f = frames_.back();
    frames_.pop_back();
    completed_ = sets_.unite(f.left_set, completed_);
    thread_slots_[completed_] = f.base;
    english_.erase(f.minted.eng);
    hebrew_.erase(f.minted.heb);
  }
  void on_thread_begin(tree::ThreadId t) {
    SpOrder::on_thread_begin(t);
    while (sets_.size() <= t) sets_.make_set();
    completed_ = t;  // the thread's subtree is the next to complete
  }

  void enter_internal(const tree::Node& n) override {
    on_fork(n.kind == tree::NodeKind::kSeries);
  }
  void between_children(const tree::Node&) override { on_switch(); }
  void leave_internal(const tree::Node&) override { on_join(); }
  void visit_leaf(const tree::Node& n) override { on_thread_begin(n.thread); }

  /// On-the-fly only: v must be executing (not yet inside any completed
  /// subtree). u may be finished; it resolves to its completed root.
  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    return ordered(thread_slots_[sets_.find(u)], thread_slots_[sets_.find(v)]);
  }

  std::size_t memory_bytes() const override {
    // Genuinely live footprint: the OrderLists shrink as subtrees
    // complete (erase() frees nodes and emptied buckets).
    return SpOrder::memory_bytes() + sets_.memory_bytes() +
           frames_.capacity() * sizeof(Frame);
  }

  /// Live OM items across both lists (for the reclamation tests).
  std::size_t live_om_items() const {
    return english_.size() + hebrew_.size();
  }

 private:
  struct Frame {
    Slot base;    ///< the forked subtree's slot, its collapsed slot later
    Slot minted;  ///< the two items split() minted, erased at the join
    bool series = false;
    std::uint32_t left_set = 0;  ///< completed left subtree, from switch on
  };

  bags::DisjointSets sets_{0};  ///< thread sets of completed subtrees
  std::vector<Frame> frames_;   ///< open forks
  tree::ThreadId completed_ = 0;  ///< set of the last completed subtree
};

}  // namespace spr::order
