// hybrid_fib: Theorem 10. hybrid::run_parallel on fib(24) with 64 spin
// iterations per thread, in Mode::kHybrid (2 SP queries per thread) and
// Mode::kPlain, at P = 1, 2, 4 workers. Each P-worker call runs with the
// calling thread's affinity set to exactly P distinct cores, which the
// engine's worker threads inherit. All of it is sphybrid: deques,
// trace-local SP-bags, the global order on steals; no shadow memory.

#include "fjprog/generators.hpp"
#include "seams.hpp"
#include "sphybrid/executor.hpp"
#include "sphybrid/worker.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr std::uint32_t kFib = 24;
constexpr std::uint64_t kWork = 64;
constexpr std::uint32_t kQueriesPerThread = 2;
constexpr unsigned kWorkers[] = {1, 2, 4};

using spr::hybrid::ExecOptions;
using spr::hybrid::ExecResult;
using spr::hybrid::Mode;

struct Row {
  std::vector<double> hybrid_s, plain_s;
  /// Steal ticks the row's cores lost during each hybrid and plain call.
  std::vector<std::uint64_t> hybrid_steal, plain_steal;
  std::vector<double> steals, om_inserts, lock_wait_ns, query_retries,
      fast_query_frac;
};

}  // namespace

void run_hybrid_fib(const Args& a, Report& r) {
  pin_this_thread(cpu_set(1));

  SetupTimes setup;
  const spr::tree::ParseTree t =
      build_tree([] { return spr::fj::make_fib(kFib, kWork); }, setup);
  const ProgramCounts pc = count_program(t);

  // Oracles, untimed: the checksums of Mode::kSerialReference.
  ExecOptions ref_opts;
  ref_opts.mode = Mode::kSerialReference;
  ref_opts.seed = a.seed;
  ref_opts.queries_per_leaf = kQueriesPerThread;
  const std::uint64_t want_hybrid =
      spr::hybrid::run_parallel(t, ref_opts).checksum;
  ref_opts.queries_per_leaf = 0;
  const std::uint64_t want_plain =
      spr::hybrid::run_parallel(t, ref_opts).checksum;

  ExecOptions hybrid_opts;
  hybrid_opts.mode = Mode::kHybrid;
  hybrid_opts.queries_per_leaf = kQueriesPerThread;
  hybrid_opts.seed = a.seed;
  ExecOptions plain_opts;
  plain_opts.mode = Mode::kPlain;
  plain_opts.seed = a.seed;

  // The planted self-test runs the engine over ReversedOm: the same
  // queries, with the global order's answers reversed.
  const auto timed_call = [&](const ExecOptions& o, double& secs) {
    const auto t0 = Clock::now();
    ExecResult res =
        a.plant_wrong_answer && o.mode == Mode::kHybrid
            ? spr::hybrid::BasicWorkStealingEngine<ReversedOm>(t, o).run()
            : spr::hybrid::run_parallel(t, o);
    secs = seconds_between(t0, Clock::now());
    return res;
  };

  // One round runs every P in turn under a mask of exactly P cores, then
  // the host probe on each of the P=4 cores at once, whose median core
  // gives the round's probe time.
  Row rows[3];
  std::vector<double> probe_s;
  std::vector<std::uint64_t> probe_steal;
  std::uint64_t queries = 0;
  const auto round = [&](bool record) {
    for (int k = 0; k < 3; ++k) {
      const unsigned p = kWorkers[k];
      const std::vector<int> cores = cpu_set(p);
      pin_this_thread(cores);
      hybrid_opts.workers = plain_opts.workers = p;
      double hs = 0, ps = 0;
      const std::uint64_t s0 = steal_ticks(cores);
      const ExecResult h = timed_call(hybrid_opts, hs);
      const std::uint64_t s1 = steal_ticks(cores);
      const ExecResult pl = timed_call(plain_opts, ps);
      const std::uint64_t s2 = steal_ticks(cores);
      r.check(h.checksum == want_hybrid && h.om_inserts == 3 * h.splits &&
              h.traces == 4 * h.splits + 1);
      r.check(pl.checksum == want_plain);
      if (!record) continue;
      Row& row = rows[k];
      row.hybrid_s.push_back(hs);
      row.plain_s.push_back(ps);
      row.hybrid_steal.push_back(s1 - s0);
      row.plain_steal.push_back(s2 - s1);
      row.steals.push_back(static_cast<double>(h.steals));
      row.om_inserts.push_back(static_cast<double>(h.om_inserts));
      row.lock_wait_ns.push_back(static_cast<double>(h.lock_wait_ns));
      row.query_retries.push_back(static_cast<double>(h.query_retries));
      row.fast_query_frac.push_back(
          h.queries == 0 ? 0
                         : static_cast<double>(h.fast_queries) /
                               static_cast<double>(h.queries));
      queries = h.queries;
    }
    if (!record || a.trace) return;
    std::vector<double> core_probe_s(kWorkers[2]);
    const std::uint64_t s0 = steal_ticks(cpu_set(kWorkers[2]));
    run_pinned_concurrently(kWorkers[2], [&](unsigned i) {
      return [&, i] { core_probe_s[i] = probe_host(i); };
    });
    probe_steal.push_back(steal_ticks(cpu_set(kWorkers[2])) - s0);
    probe_s.push_back(median(core_probe_s));
  };
  round(false);  // warm-up, untimed
  // Every round repeats the warm-up's allocations, so its peak is the
  // workload's; read before the probes add their own blocks.
  const double rss_mb = peak_rss_mb();
  repeat_for(a.seconds, 3, cpu_set(kWorkers[2]), [&] { round(true); });
  pin_this_thread(cpu_set(1));

  for (int k = 0; k < 3; ++k)
    r.info_text("mask.p" + std::to_string(kWorkers[k]), mask_string(cpu_set(kWorkers[k])));
  r.info("samples.setup", kSetupReps);
  // A round runs for about half a second on up to four cores; the steal
  // that matters to a call is the steal on its own cores while it runs.
  // Each row's hybrid calls are therefore kept or left out by their own
  // steal, and its plain calls by theirs. The info line reports the P=4
  // hybrid calls.
  Quiet(rows[2].hybrid_steal).report(r);
  r.info("threads", static_cast<double>(pc.threads));
  r.metric("fjprog.generate_s", median(setup.generate_s));
  r.metric("fjprog.lower_s", median(setup.lower_s));

  for (Row& row : rows) {
    const Quiet hybrid_quiet(row.hybrid_steal);
    for (std::vector<double>* v :
         {&row.hybrid_s, &row.steals, &row.om_inserts, &row.lock_wait_ns,
          &row.query_retries, &row.fast_query_frac})
      *v = hybrid_quiet.of(*v);
    row.plain_s = Quiet(row.plain_steal).of(row.plain_s);
  }
  if (a.trace) {
    for (int k = 0; k < 3; ++k) {
      const std::string p = ".p" + std::to_string(kWorkers[k]);
      r.metric("sphybrid.hybrid_s" + p, median(rows[k].hybrid_s));
      r.metric("sphybrid.plain_s" + p, median(rows[k].plain_s));
      if (kWorkers[k] == 1) continue;
      r.metric("sphybrid.steals" + p, median(rows[k].steals));
      r.metric("sphybrid.om_inserts" + p, median(rows[k].om_inserts));
      r.metric("sphybrid.lock_wait_ns" + p, median(rows[k].lock_wait_ns));
      r.metric("sphybrid.query_retries" + p, median(rows[k].query_retries));
      r.metric("sphybrid.fast_query_frac" + p, median(rows[k].fast_query_frac));
    }
    // The engine always collects these counters; the traced run adds no
    // wrapper here, so its overhead is zero by construction.
    r.metric("trace.overhead_frac", 0);
    return;
  }

  // The end-to-end times at P=4, and set-up, are scaled to the reference
  // host's speed by one factor per process: the median of the probes kept
  // by their own steal, as the calls are. Unlike a per-round factor, a
  // probe the hypervisor disturbed cannot rescale a call it did not
  // disturb. speedup_p4 and slowdown are ratios of raw times.
  const double host =
      host_factor(median(Quiet(probe_steal).of(probe_s)));
  const Row& p4 = rows[2];
  std::vector<double> hybrid4 = p4.hybrid_s;
  for (double& s : hybrid4) s *= host;
  const double wall = median(hybrid4);
  r.info("host_factor", host);
  r.info("raw.wall_s", median(p4.hybrid_s));
  r.metric("setup_s", median(setup.total_s) * host);
  r.metric("wall_s", wall);
  r.metric("slowdown", median(p4.hybrid_s) / median(p4.plain_s));
  r.metric("events_per_s", static_cast<double>(pc.events) / wall);
  r.metric("batch_p50_us", wall * 1e6);
  r.metric("batch_p99_us", tail(hybrid4) * 1e6);
  r.metric("speedup_p4", median(rows[0].hybrid_s) / median(p4.hybrid_s));
  r.metric("ns_per_thread", wall * 1e9 / static_cast<double>(pc.threads));
  r.metric("ns_per_query",
           (wall - median(p4.plain_s) * host) * 1e9 /
               static_cast<double>(queries));
  r.metric("peak_rss_mb", rss_mb);
}

}  // namespace bench
