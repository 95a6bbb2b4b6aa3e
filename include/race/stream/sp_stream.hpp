#pragma once
// Per-stream SP engines for the streaming service (race/stream/).
//
// StreamingSpOrder is the paper's English/Hebrew SP-order construction
// driven by fork/switch/join/thread events instead of a materialized
// parse tree: because events arrive in English order, the per-node slot
// table of sporder/sp_order.hpp collapses to a stack of pending
// right-branch slots — Theta(1) state per open fork, Theta(1) work per
// event, Theta(1) per query (Theorems 4-5), and no requirement that the
// client ever materializes its program. This is the DePa-style
// "per-stream label machinery" (PAPERS.md) the service runs natively.

#include <cstddef>
#include <vector>

#include "om/order_list.hpp"
#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"

namespace spr::race::stream {

class StreamingSpOrder {
 public:
  StreamingSpOrder() {
    cur_.eng = english_.insert_front();
    cur_.heb = hebrew_.insert_front();
  }

  /// Splits the current subtree's items between the two branches: English
  /// order always keeps left-before-right; Hebrew order swaps the
  /// branches of a parallel fork so parallel siblings disagree between
  /// the lists (the Theorem 4 characterization).
  void on_fork(bool series) {
    Slot right;
    right.eng = english_.insert_after(cur_.eng);
    if (series) {
      right.heb = hebrew_.insert_after(cur_.heb);
    } else {
      right.heb = cur_.heb;
      cur_.heb = hebrew_.insert_after(cur_.heb);
    }
    pending_.push_back(right);  // cur_ is now the left branch's slot
  }

  void on_switch() { cur_ = pending_.back(); }
  void on_join() { pending_.pop_back(); }

  void on_thread_begin(tree::ThreadId t) {
    if (thread_slots_.size() <= t) thread_slots_.resize(t + 1);
    thread_slots_[t] = cur_;
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    const Slot& a = thread_slots_[u];
    const Slot& b = thread_slots_[v];
    return english_.precedes(a.eng, b.eng) && hebrew_.precedes(a.heb, b.heb);
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + english_.memory_bytes() + hebrew_.memory_bytes() +
           pending_.capacity() * sizeof(Slot) +
           thread_slots_.capacity() * sizeof(Slot);
  }

  const om::OrderList::Stats& english_stats() const {
    return english_.stats();
  }
  const om::OrderList::Stats& hebrew_stats() const { return hebrew_.stats(); }

 private:
  struct Slot {
    om::OrderList::Item* eng = nullptr;
    om::OrderList::Item* heb = nullptr;
  };

  om::OrderList english_;
  om::OrderList hebrew_;
  Slot cur_;                        ///< slot of the subtree being entered
  std::vector<Slot> pending_;       ///< right-branch slots of open forks
  std::vector<Slot> thread_slots_;  ///< per thread, set at thread begin
};

}  // namespace spr::race::stream
