// Tests for the SP-hybrid execution harness (serial reference
// implementation), the two-tier segment list's steal cut, the concurrent
// order-maintenance stub, parse-tree metrics, and the util layer
// (rng/stats/table formatting).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "om/concurrent_om.hpp"
#include "sphybrid/executor.hpp"
#include "sphybrid/segment_list.hpp"
#include "sptree/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::Mode;

TEST(Hybrid, ModesRunAndCountersHold) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(12, 4));
  for (const Mode mode : {Mode::kPlain, Mode::kNaive, Mode::kHybrid,
                          Mode::kSerialReference}) {
    ExecOptions o;
    o.mode = mode;
    o.workers = 2;
    o.queries_per_leaf = 2;
    const auto r = spr::hybrid::run_parallel(t, o);
    EXPECT_GT(r.elapsed_s, 0.0);
    EXPECT_EQ(r.traces, 4 * r.splits + 1);  // |C| = 4s + 1 (Section 5)
    if (mode == Mode::kNaive) {
      // Naive locks every OM insertion: 4 item inserts per internal node.
      EXPECT_EQ(r.om_inserts,
                4ull * (t.node_count() - t.leaf_count()));
    } else if (mode == Mode::kHybrid) {
      // Hybrid pays locked insertions only on steals: the two-tier orders
      // take exactly 3 global cuts per trace split (measured, not modeled).
      EXPECT_EQ(r.om_inserts, 3 * r.splits);
      EXPECT_GE(r.steals, r.splits);
    } else {
      // No SP maintenance: no trace splits and no global-tier insertions.
      // kPlain still runs the work-stealing scheduler, so its workers may
      // steal; only the serial oracle never does.
      EXPECT_EQ(r.splits, 0u);
      EXPECT_EQ(r.om_inserts, 0u);
      EXPECT_EQ(r.traces, 1u);
      if (mode == Mode::kSerialReference) {
        EXPECT_EQ(r.steals, 0u);
      }
    }
    if (mode != Mode::kPlain) {
      EXPECT_GT(r.queries, 0u);
    }
  }
}

// less() must agree with the mirror's positions on every pair.
void expect_matches_mirror(const spr::hybrid::SegmentList& sl,
                           const std::vector<spr::hybrid::SegmentList::Item*>&
                               mirror) {
  for (std::size_t x = 0; x < mirror.size(); ++x)
    for (std::size_t y = 0; y < mirror.size(); ++y)
      ASSERT_EQ(sl.less(mirror[x], mirror[y]), x < y)
          << "x=" << x << " y=" << y;
}

TEST(SegmentList, SplitMovesTheSmallerSide) {
  using spr::hybrid::SegmentList;
  SegmentList sl;
  std::vector<SegmentList::Item*> mirror{sl.root()};
  for (int i = 0; i < 11; ++i) mirror.push_back(sl.insert_after(mirror.back()));
  // The cut at position k leaves a prefix of k items and a suffix of the
  // rest of the segment; only the smaller side may move.
  const auto cut = [&](std::size_t k, std::size_t prefix, std::size_t suffix) {
    const std::size_t segments = sl.segment_count();
    EXPECT_EQ(sl.split_tail(mirror[k]), std::min(prefix, suffix)) << "k=" << k;
    EXPECT_EQ(sl.segment_count(), segments + 1);
    expect_matches_mirror(sl, mirror);
  };
  cut(2, 2, 10);   // short prefix: [0, 1] moves and takes the global item
  cut(10, 8, 2);   // short suffix in what is left: [10, 11] moves
  cut(5, 3, 5);    // short prefix again, inside [2 .. 9]
  cut(5, 0, 5);    // a cut at a segment's head moves nothing
  // Both kinds of segment keep taking inserts in order after the cuts.
  for (const std::size_t at : {std::size_t{0}, std::size_t{4},
                               std::size_t{7}, std::size_t{11}}) {
    mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                  sl.insert_after(mirror[at]));
    expect_matches_mirror(sl, mirror);
  }
}

TEST(Hybrid, StealCutsMoveFewItems) {
  // A steal cuts each order where the stolen subtree begins. The victim
  // keeps inserting on one side of that cut; moving the smaller side
  // keeps a cut to a handful of items, where moving the whole suffix
  // moved several hundred per split on this program.
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(20, 64));
  ExecOptions o;
  o.mode = Mode::kHybrid;
  o.workers = 4;
  o.queries_per_leaf = 2;
  std::uint64_t splits = 0, moved = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto r = spr::hybrid::run_parallel(t, o);
    EXPECT_EQ(r.om_inserts, 3 * r.splits);
    EXPECT_GE(r.traces_minted, r.steals + 1);  // each steal mints a trace
    splits += r.splits;
    moved += r.split_items_moved;
  }
  if (splits > 0) {
    EXPECT_LT(moved, 32 * splits) << "items moved per split: "
                                  << static_cast<double>(moved) /
                                         static_cast<double>(splits);
  }
}

TEST(Hybrid, SingleWorkerNeverStealsOrTouchesGlobalTier) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(12, 4));
  ExecOptions o;
  o.mode = Mode::kHybrid;
  o.workers = 1;
  o.queries_per_leaf = 2;
  const auto r = spr::hybrid::run_parallel(t, o);
  EXPECT_EQ(r.workers_used, 1u);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.splits, 0u);
  EXPECT_EQ(r.om_inserts, 0u);
  EXPECT_EQ(r.traces, 1u);
  EXPECT_EQ(r.traces_minted, 1u);
  EXPECT_EQ(r.split_items_moved, 0u);
}

TEST(Hybrid, FastQueriesCountedPerWorker) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(14, 4));
  ExecOptions ref;
  ref.mode = Mode::kSerialReference;
  ref.queries_per_leaf = 2;
  const auto want = spr::hybrid::run_parallel(t, ref);
  for (const unsigned workers : {1u, 2u, 4u}) {
    ExecOptions o = ref;
    o.mode = Mode::kHybrid;
    o.workers = workers;
    const auto r = spr::hybrid::run_parallel(t, o);
    EXPECT_EQ(r.checksum, want.checksum) << "workers=" << workers;
    EXPECT_EQ(r.queries, want.queries) << "workers=" << workers;
    // One worker runs one trace, so the SP-bags tier answers every query;
    // with more, cross-trace queries fall through to the two-tier orders.
    if (workers == 1) {
      EXPECT_EQ(r.fast_queries, r.queries);
    } else {
      EXPECT_LE(r.fast_queries, r.queries) << "workers=" << workers;
    }
  }
}

TEST(Hybrid, WorkerCountIsValidated) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(6));
  ExecOptions o;
  o.workers = 0;
  EXPECT_THROW(spr::hybrid::run_parallel(t, o), std::invalid_argument);
  o.workers = 1u << 20;  // absurd request clamps to the hardware
  const auto r = spr::hybrid::run_parallel(t, o);
  EXPECT_GE(r.workers_used, 1u);
  EXPECT_LE(r.workers_used, std::max(4u, std::thread::hardware_concurrency()));
}

TEST(Hybrid, DetectsInjectedRaces) {
  ExecOptions o;
  o.mode = Mode::kHybrid;
  o.detect_races = true;
  const auto clean = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(1u << 10, 8, false));
  EXPECT_FALSE(spr::hybrid::run_parallel(clean, o).has_race());
  const auto racy = spr::fj::lower_to_parse_tree(
      spr::fj::make_dnc_fill(1u << 10, 8, true));
  EXPECT_TRUE(spr::hybrid::run_parallel(racy, o).has_race());
}

TEST(ConcurrentOm, SerialOrderIsCorrect) {
  spr::om::ConcurrentOrderList list;
  auto* a = list.insert_after(list.base());
  auto* b = list.insert_after(a);
  auto* c = list.insert_after(a);  // between a and b
  EXPECT_TRUE(list.precedes(list.base(), a));
  EXPECT_TRUE(list.precedes(a, c));
  EXPECT_TRUE(list.precedes(c, b));
  EXPECT_FALSE(list.precedes(b, a));
}

TEST(ConcurrentOm, RelabelStormKeepsOrder) {
  spr::om::ConcurrentOrderList list;
  auto* pivot = list.insert_after(list.base());
  std::vector<spr::om::ConcurrentOrderList::Item*> items;
  for (int i = 0; i < 5000; ++i) items.push_back(list.insert_after(pivot));
  // Order: base, pivot, items[4999], ..., items[0].
  spr::util::Xoshiro256 rng(5);
  for (int s = 0; s < 2000; ++s) {
    const auto i = rng.next_below(items.size());
    const auto j = rng.next_below(items.size());
    ASSERT_TRUE(list.precedes(pivot, items[i]));
    if (i != j) {
      ASSERT_EQ(list.precedes(items[i], items[j]), i > j);
    }
  }
}

TEST(ConcurrentOm, ConcurrentInsertsAndQueriesSmoke) {
  spr::om::ConcurrentOrderList list;
  auto* pivot = list.insert_after(list.base());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire))
      (void)list.precedes(list.base(), pivot);
  });
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) (void)list.insert_after(pivot);
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(list.size(), 20002u);
  EXPECT_TRUE(list.precedes(list.base(), pivot));
}

TEST(Metrics, BalancedTree) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_balanced(4));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads, 16u);
  EXPECT_EQ(m.p_nodes, 15u);
  EXPECT_EQ(m.max_p_depth, 4u);
  EXPECT_EQ(m.work, 32u);  // 16 leaves x (work 1 + 1)
  EXPECT_EQ(m.span, 2u);   // all-parallel: one leaf on the critical path
}

TEST(Metrics, SeriesChainAddsSpans) {
  const auto t =
      spr::fj::lower_to_parse_tree(spr::fj::make_loop_sync(8, 1, 1));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads, 8u);
  EXPECT_EQ(m.work, m.span);  // everything serial
}

TEST(Metrics, NodeAccountingConsistent) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_fib(9));
  const auto m = spr::tree::compute_metrics(t);
  EXPECT_EQ(m.threads + m.p_nodes + m.s_nodes, t.node_count());
  EXPECT_EQ(m.threads, t.leaf_count());
  EXPECT_GE(m.work, m.span);
}

TEST(Util, XoshiroIsDeterministicAndBounded) {
  spr::util::Xoshiro256 a(7), b(7), c(8);
  bool all_same = true;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    ASSERT_EQ(x, b.next_u64());
    if (x != c.next_u64()) all_same = false;
  }
  EXPECT_FALSE(all_same);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(a.next_below(17), 17u);
  EXPECT_EQ(a.next_below(0), 0u);
  EXPECT_EQ(a.next_below(1), 0u);
}

TEST(Util, LinearFitRecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i + 2.0);
  }
  const auto fit = spr::util::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Util, SamplesOrderStatistics) {
  spr::util::Samples s;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  spr::util::Samples even;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) even.add(v);
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Util, Formatting) {
  EXPECT_EQ(spr::util::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(spr::util::fmt_ns(500), "500 ns");
  EXPECT_EQ(spr::util::fmt_ns(1500), "1.50 us");
  EXPECT_EQ(spr::util::fmt_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(spr::util::fmt_ns(3.2e9), "3.20 s");
}

TEST(Util, TablePrintsAlignedColumns) {
  spr::util::Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

TEST(Hybrid, ChecksumStableAcrossModes) {
  const auto t = spr::fj::lower_to_parse_tree(spr::fj::make_balanced(8, 8));
  ExecOptions o;
  o.queries_per_leaf = 0;
  o.mode = Mode::kPlain;
  const auto plain = spr::hybrid::run_parallel(t, o);
  o.mode = Mode::kHybrid;
  const auto hybrid = spr::hybrid::run_parallel(t, o);
  EXPECT_EQ(plain.checksum, hybrid.checksum);
}

}  // namespace
