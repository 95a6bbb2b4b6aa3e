// Theorem 10 reproduction: SP-hybrid executes a fork-join program with n
// threads, T1 work and critical path Tinf in O((T1/P + P*Tinf) lg n)
// expected time on P processors, with O(P*Tinf) steals.
//
// This harness drives the REAL work-stealing executor: per-worker
// Chase-Lev deques, trace-local SP-bags, and global order-maintenance
// insertions only on steals. Every reported quantity is measured from the
// run (no modeled counters):
//   steals/splits   from the deques' successful steal CASes,
//   OM ins          global-tier insertions (3 per trace split),
//   lock wait       time inside locked global sections,
//   qry retries     failed lock-free seqlock query attempts (bucket B5),
//   traces          |C| = 4*splits + 1, checked against measured splits,
//   traces_minted   trace ids the run actually minted,
//   moved/split     segment items the steal cuts moved, per split.
// Each hybrid run's checksum is cross-checked against the serial
// reference executor, so a scaling number from a wrong answer is
// impossible. Each P row runs with the calling thread (and so every
// worker it starts) pinned to the first P cores it may use, 0..P-1 on a
// full host. Emits machine-readable `#METRIC {...}` JSON lines for
// scripts/bench.sh.
//
// Hardware honesty: speedup only appears when the host really has >1
// core. On a 1-core container every P > 1 row is oversubscribed —
// expect slowdown there, not speedup; the point of those rows is that
// steals/splits/OM-inserts stay tiny and the answers stay exact.

#include <sched.h>

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "sphybrid/executor.hpp"
#include "sptree/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;

/// The cores this process may run on, read once before any row pins.
const std::vector<int>& allowed_cores() {
  static const std::vector<int> cores = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cores;
}

/// Pins the calling thread to the first `p` allowed cores (all of them if
/// fewer) and returns the mask as text; the engine's workers inherit it.
std::string pin_first_cores(unsigned p) {
  const std::vector<int>& cores = allowed_cores();
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask;
  for (std::size_t i = 0; i < cores.size() && i < p; ++i) {
    CPU_SET(cores[i], &set);
    mask += (i ? "," : "") + std::to_string(cores[i]);
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) return "unpinned";
  return mask;
}

ExecResult best_of(const spr::tree::ParseTree& t, const ExecOptions& opts,
                   int reps) {
  ExecResult best;
  best.elapsed_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    ExecResult res = spr::hybrid::run_parallel(t, opts);
    // Keep the fastest run's timing but the SUM-like counters of that
    // same run, so every row is internally consistent.
    if (res.elapsed_s < best.elapsed_s) best = res;
  }
  return best;
}

void metric_line(const std::string& bench, const std::string& name,
                 unsigned workers, const std::string& cores,
                 const ExecResult& r, bool checksum_ok) {
  std::cout << "#METRIC {\"bench\":\"" << bench << "\",\"tree\":\"" << name
            << "\",\"workers\":" << workers << ",\"cores\":\"" << cores
            << "\",\"elapsed_s\":" << r.elapsed_s
            << ",\"steals\":" << r.steals << ",\"splits\":" << r.splits
            << ",\"traces\":" << r.traces
            << ",\"traces_minted\":" << r.traces_minted
            << ",\"split_items_moved\":" << r.split_items_moved
            << ",\"om_inserts\":" << r.om_inserts
            << ",\"lock_wait_ns\":" << r.lock_wait_ns
            << ",\"query_retries\":" << r.query_retries
            << ",\"fast_queries\":" << r.fast_queries
            << ",\"queries\":" << r.queries
            << ",\"checksum_ok\":" << (checksum_ok ? "true" : "false")
            << "}\n";
}

void bench_tree(const std::string& name, const spr::tree::ParseTree& t) {
  const auto m = spr::tree::compute_metrics(t);
  std::cout << "\n-- " << name << ": n=" << m.threads << ", T1=" << m.work
            << ", Tinf=" << m.span << ", T1/Tinf=" << m.work / m.span
            << " --\n";

  // Serial oracle: the answer every parallel run must reproduce.
  ExecOptions oracle;
  oracle.mode = Mode::kSerialReference;
  oracle.queries_per_leaf = 2;
  const ExecResult serial = spr::hybrid::run_parallel(t, oracle);

  spr::util::Table table({"P", "plain T_P", "hybrid T_P", "overhead",
                          "speedup(hybrid)", "steals", "P*Tinf",
                          "traces(=4s+1)", "OM ins(=3s)", "moved/split",
                          "lock wait", "qry retries", "answers"});
  double hybrid_p1 = 0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    const std::string cores = pin_first_cores(workers);
    ExecOptions plain;
    plain.workers = workers;
    plain.mode = Mode::kPlain;
    const ExecResult rp = best_of(t, plain, 3);

    ExecOptions hyb;
    hyb.workers = workers;
    hyb.mode = Mode::kHybrid;
    hyb.queries_per_leaf = 2;
    const ExecResult rh = best_of(t, hyb, 3);
    if (workers == 1) hybrid_p1 = rh.elapsed_s;

    const bool traces_ok = rh.traces == 4 * rh.splits + 1;
    const bool inserts_ok = rh.om_inserts == 3 * rh.splits;
    const bool checksum_ok = rh.checksum == serial.checksum;
    table.add_row(
        {std::to_string(workers), spr::util::fmt_ns(rp.elapsed_s * 1e9),
         spr::util::fmt_ns(rh.elapsed_s * 1e9),
         spr::util::fmt_double(rh.elapsed_s / rp.elapsed_s, 2) + "x",
         spr::util::fmt_double(hybrid_p1 / rh.elapsed_s, 2) + "x",
         std::to_string(rh.steals),
         std::to_string(workers * m.span),
         std::to_string(rh.traces) + (traces_ok ? "" : " VIOLATION"),
         std::to_string(rh.om_inserts) + (inserts_ok ? "" : " VIOLATION"),
         rh.splits == 0
             ? std::string("-")
             : spr::util::fmt_double(static_cast<double>(rh.split_items_moved) /
                                         static_cast<double>(rh.splits),
                                     1),
         spr::util::fmt_ns(static_cast<double>(rh.lock_wait_ns)),
         std::to_string(rh.query_retries),
         checksum_ok ? "match" : "MISMATCH"});
    metric_line("thm10", name, workers, cores, rh, checksum_ok);
  }
  pin_first_cores(static_cast<unsigned>(allowed_cores().size()));
  table.print(std::cout);
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "Theorem 10 — SP-hybrid: O((T1/P + P*Tinf) lg n) expected "
               "time, O(P*Tinf) steals\n"
            << "(real work-stealing executor; 2 SP queries per thread; "
               "best of 3 runs per cell)\n"
            << "hardware_concurrency=" << hw
            << (hw <= 1 ? "  [1-core host: P>1 rows are oversubscribed; "
                          "no speedup is physically possible]\n"
                        : "\n");
  bench_tree("fib(24), 64 work/thread", spr::fj::lower_to_parse_tree(
                                            spr::fj::make_fib(24, 64)));
  bench_tree("balanced(15), 128 work/thread",
             spr::fj::lower_to_parse_tree(spr::fj::make_balanced(15, 128)));
  std::cout
      << "\nShape check (paper): hybrid overhead vs plain is a modest "
         "constant factor at\nfixed P (the lg n factor); measured steals "
         "stay well below the O(P*Tinf)\nbound and global OM inserts are "
         "exactly 3 per split; hybrid speeds up with P\non ample "
         "parallelism (T1/Tinf >> P) when the host has that many cores.\n";
  return 0;
}
