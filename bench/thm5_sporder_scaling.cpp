// Theorem 5 / Corollary 6 reproduction (construction side): "the total
// time for on-the-fly construction of the SP-order data structure is
// O(n)." The harness sweeps n over ~two orders of magnitude on three tree
// shapes and reports ns per leaf, which must stay flat, plus a linear fit
// of total time vs n (R^2 ~ 1, intercept negligible). Each (shape, n)
// row is also printed as one `#METRIC {...}` line for scripts/bench.sh.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sporder/sp_order.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::tree::ParseTree;

struct Point {
  std::string shape;
  ParseTree tree;
};

double median_walk_s(const ParseTree& t, int reps) {
  spr::util::Samples s;
  for (int r = 0; r < reps; ++r) {
    spr::order::SpOrder algo(t);
    s.add(spr::benchutil::time_walk(t, algo));
  }
  return s.median();
}

}  // namespace

int main() {
  std::cout << "Theorem 5 — SP-order builds in O(n) total time\n";
  for (const char* shape : {"balanced", "fib", "random"}) {
    spr::util::Table table({"n (threads)", "total", "ns/thread",
                            "OM items moved/insert"});
    std::vector<double> xs, ys;
    for (int scale = 0; scale < 6; ++scale) {
      ParseTree t = [&]() -> ParseTree {
        if (std::string(shape) == "balanced")
          return spr::fj::lower_to_parse_tree(
              spr::fj::make_balanced(12 + scale));
        if (std::string(shape) == "fib")
          return spr::fj::lower_to_parse_tree(
              spr::fj::make_fib(17 + scale));
        return spr::fj::lower_to_parse_tree(spr::fj::make_random_program(
            42 + static_cast<std::uint64_t>(scale),
            20000u << scale));
      }();
      const auto n = static_cast<double>(t.leaf_count());
      const double secs = median_walk_s(t, 3);
      spr::order::SpOrder probe(t);
      (void)spr::benchutil::time_walk(t, probe);
      const auto& st = probe.english_stats();
      const double moved = st.inserts == 0
                               ? 0
                               : static_cast<double>(st.items_moved) /
                                     static_cast<double>(st.inserts);
      std::cout << "#METRIC {\"bench\":\"thm5_sporder_scaling\",\"workload\":\""
                << shape << "\",\"n\":" << t.leaf_count()
                << ",\"ns_per_thread\":" << secs * 1e9 / n
                << ",\"items_moved_per_insert\":" << moved << "}\n";
      xs.push_back(n);
      ys.push_back(secs);
      table.add_row({std::to_string(t.leaf_count()),
                     spr::util::fmt_ns(secs * 1e9),
                     spr::util::fmt_double(secs * 1e9 / n, 2),
                     spr::util::fmt_double(moved, 3)});
    }
    const auto fit = spr::util::fit_linear(xs, ys);
    std::cout << "\n-- shape: " << shape << " --\n";
    table.print(std::cout);
    std::cout << "linear fit: time = " << spr::util::fmt_ns(fit.intercept * 1e9)
              << " + n * " << spr::util::fmt_double(fit.slope * 1e9, 2)
              << " ns,  R^2 = " << spr::util::fmt_double(fit.r_squared, 4)
              << "\n";
  }
  std::cout << "\nShape check (paper): ns/thread flat across the sweep "
               "(R^2 ~ 1) on every tree shape.\n";
  return 0;
}
