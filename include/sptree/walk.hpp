#pragma once
// Serial (English-order) walk of an SP parse tree: the execution model of
// a single-processor fork-join run. The walk visits leaves exactly in
// thread-id order and brackets every internal node with enter / between /
// leave callbacks (WalkVisitor, sp_maintenance.hpp), which is all an
// on-the-fly SP-maintenance algorithm gets to see; an SpMaintenance is a
// WalkVisitor and is walked directly.

#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::tree {

/// Depth-first left-to-right walk; iterative so deep spawn chains (e.g.
/// loop_spawn with 10^5 threads) cannot overflow the call stack.
inline void serial_walk(const ParseTree& t, WalkVisitor& v) {
  if (t.root() == kNoNode) return;
  // Explicit stack of (node, stage): stage 0 = not yet entered,
  // 1 = left child done, 2 = right child done.
  struct Frame {
    NodeId id;
    int stage;
  };
  std::vector<Frame> stack;
  stack.push_back({t.root(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const Node& n = t.node(f.id);
    if (n.kind == NodeKind::kLeaf) {
      v.visit_leaf(n);
      v.leave_leaf(n);
      stack.pop_back();
      continue;
    }
    switch (f.stage) {
      case 0:
        v.enter_internal(n);
        f.stage = 1;
        stack.push_back({n.left, 0});
        break;
      case 1:
        v.between_children(n);
        f.stage = 2;
        stack.push_back({n.right, 0});
        break;
      default:
        v.leave_internal(n);
        stack.pop_back();
        break;
    }
  }
}

}  // namespace spr::tree
