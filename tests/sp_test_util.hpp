#pragma once
// Shared test scaffolding: a brute-force LCA oracle for SP relationships,
// a corpus of small deterministic fork-join programs, two helpers that
// walk an SP-maintenance algorithm over a tree and check its answers
// against the oracle (on the fly, and for every pair after the walk),
// and an event-trace replayer for SP engines driven by events.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"

namespace spr::testutil {

/// Ground truth by explicit LCA computation on the parse tree: for
/// threads u != v, u strictly precedes v iff u comes first in English
/// order (thread ids are assigned in English order) and LCA(u, v) is an
/// S-node.
class Oracle {
 public:
  explicit Oracle(const tree::ParseTree& t) : tree_(t) {
    depth_.assign(t.node_count(), 0);
    // Parents are created after their children, so ids descend along
    // root-to-leaf paths and one reverse sweep fixes all depths.
    for (std::uint32_t id = t.node_count(); id-- > 0;) {
      const tree::Node& n = t.node(static_cast<tree::NodeId>(id));
      if (n.kind == tree::NodeKind::kLeaf) continue;
      depth_[static_cast<std::size_t>(n.left)] = depth_[id] + 1;
      depth_[static_cast<std::size_t>(n.right)] = depth_[id] + 1;
    }
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    return u < v && lca_kind(u, v) == tree::NodeKind::kSeries;
  }

  bool parallel(tree::ThreadId u, tree::ThreadId v) const {
    if (u == v) return false;
    return lca_kind(u, v) == tree::NodeKind::kParallel;
  }

 private:
  tree::NodeKind lca_kind(tree::ThreadId u, tree::ThreadId v) const {
    tree::NodeId a = tree_.leaf(u).id;
    tree::NodeId b = tree_.leaf(v).id;
    while (depth_[static_cast<std::size_t>(a)] >
           depth_[static_cast<std::size_t>(b)])
      a = tree_.node(a).parent;
    while (depth_[static_cast<std::size_t>(b)] >
           depth_[static_cast<std::size_t>(a)])
      b = tree_.node(b).parent;
    while (a != b) {
      a = tree_.node(a).parent;
      b = tree_.node(b).parent;
    }
    return tree_.node(a).kind;
  }

  const tree::ParseTree& tree_;
  std::vector<std::uint32_t> depth_;
};

struct NamedProgram {
  std::string name;
  tree::ParseTree tree;
};

/// Small deterministic corpus covering every generator shape: balanced
/// and skewed recursion, spawn chains (the depth-adversarial case),
/// random SP trees, and the access-carrying kernels.
inline std::vector<NamedProgram> corpus() {
  std::vector<NamedProgram> out;
  auto add = [&out](std::string name, fj::FjProg p) {
    out.push_back({std::move(name), fj::lower_to_parse_tree(p)});
  };
  add("fib(8)", fj::make_fib(8));
  add("fib(10)", fj::make_fib(10));
  add("balanced(5)", fj::make_balanced(5));
  add("balanced(7)", fj::make_balanced(7));
  add("loop_spawn(32)", fj::make_loop_spawn(32));
  add("loop_sync(40,4)", fj::make_loop_sync(40, 4));
  add("loop_sync(33,5)", fj::make_loop_sync(33, 5));
  add("dnc_fill(64,4)", fj::make_dnc_fill(64, 4));
  add("reduce_sum(64,4)", fj::make_reduce_sum(64, 4));
  add("stencil(32,4)", fj::make_stencil(32, 4));
  add("locked_accumulator(32,4)", fj::make_locked_accumulator(32, 4));
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    add("random(seed=" + std::to_string(seed) + ")",
        fj::make_random_program(seed, 150));
  return out;
}

/// Walks `algo` over the tree and, as each thread v begins, checks
/// precedes(u, v) for every earlier thread u against the oracle: the
/// race-detector access pattern, valid for every algorithm.
inline void expect_matches_oracle_on_the_fly(const tree::ParseTree& t,
                                             tree::SpMaintenance& algo,
                                             const std::string& name) {
  class V final : public tree::WalkVisitor {
   public:
    V(tree::SpMaintenance& a, const Oracle& o, const std::string& name)
        : algo_(a), oracle_(o), name_(name) {}
    void enter_internal(const tree::Node& n) override {
      algo_.enter_internal(n);
    }
    void between_children(const tree::Node& n) override {
      algo_.between_children(n);
    }
    void leave_internal(const tree::Node& n) override {
      algo_.leave_internal(n);
    }
    void leave_leaf(const tree::Node& n) override { algo_.leave_leaf(n); }
    void visit_leaf(const tree::Node& n) override {
      algo_.visit_leaf(n);
      for (tree::ThreadId u = 0; u < n.thread; ++u) {
        ASSERT_EQ(algo_.precedes(u, n.thread), oracle_.precedes(u, n.thread))
            << name_ << ": precedes(" << u << ", " << n.thread
            << ") mismatch";
      }
    }

   private:
    tree::SpMaintenance& algo_;
    const Oracle& oracle_;
    const std::string& name_;
  };
  const Oracle oracle(t);
  V v(algo, oracle, name);
  serial_walk(t, v);
}

/// Checks precedes() for every ordered thread pair against the oracle.
/// Valid after the walk for algorithms whose structure answers arbitrary
/// completed-pair queries (SP-order and the labeling schemes — not
/// SP-bags or the compact SP-order).
inline void expect_all_pairs_match_oracle(const tree::ParseTree& t,
                                          tree::SpMaintenance& algo,
                                          const std::string& name) {
  const Oracle oracle(t);
  const tree::ThreadId n = t.leaf_count();
  for (tree::ThreadId u = 0; u < n; ++u) {
    for (tree::ThreadId v = 0; v < n; ++v) {
      ASSERT_EQ(algo.precedes(u, v), oracle.precedes(u, v))
          << name << ": precedes(" << u << ", " << v << ") mismatch";
    }
  }
}

/// Drives `algo` over the whole tree, then checks every pair.
inline void expect_matches_oracle_post_walk(const tree::ParseTree& t,
                                            tree::SpMaintenance& algo,
                                            const std::string& name) {
  serial_walk(t, algo);
  expect_all_pairs_match_oracle(t, algo, name);
}

/// Feeds a recorded event trace to `sp` through its event methods, as the
/// streaming service does, and calls `at_thread(v)` once thread v began.
template <typename Sp, typename F>
void replay_events(Sp& sp, const std::vector<race::stream::Event>& events,
                   F&& at_thread) {
  using race::stream::EventKind;
  for (const race::stream::Event& e : events) {
    switch (e.kind) {
      case EventKind::kFork:
        sp.on_fork(e.series);
        break;
      case EventKind::kSwitch:
        sp.on_switch();
        break;
      case EventKind::kJoin:
        sp.on_join();
        break;
      case EventKind::kThreadBegin:
        sp.on_thread_begin(e.thread);
        at_thread(e.thread);
        break;
      case EventKind::kThreadEnd:
      case EventKind::kAccess:
        break;
    }
  }
}

}  // namespace spr::testutil
