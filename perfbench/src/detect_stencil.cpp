// detect_stencil: serial in-process determinacy-race detection
// (Corollary 6), race::detect_races over order::SpOrder on the two-phase
// stencil with an injected race. Most of its time is the shadow path; SP
// maintenance is a small share, so shadow-table and trusted-path changes
// show here.

#include "fjprog/generators.hpp"
#include "race/detector.hpp"
#include "seams.hpp"
#include "sphybrid/executor.hpp"
#include "sporder/sp_order.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr std::uint64_t kCells = std::uint64_t{1} << 18;
constexpr std::uint32_t kGrain = 4;
constexpr int kPlainRepeats = 8;  ///< plain walks per round, averaged

using spr::order::SpOrder;
using spr::race::RaceReport;
using spr::tree::ParseTree;

/// Detection as the end-to-end run sees it: SpOrder behind the chunk
/// clock, or the planted always-serial answer in the self-test.
RaceReport detect(const ParseTree& t, SpOrder& sp, bool planted,
                  std::vector<double>* chunk_us) {
  if (planted) {
    ChunkClock<AlwaysSerial<SpOrder&>> algo(ChunkHooks(chunk_us),
                                            SerialAnswer{}, sp);
    return spr::race::detect_races(t, algo);
  }
  ChunkClock<SpOrder&> algo(ChunkHooks(chunk_us), sp);
  return spr::race::detect_races(t, algo);
}

bool same_verdict(const RaceReport& got, std::uint64_t want_races) {
  return got.race_count == want_races && got.has_race() == (want_races > 0);
}

}  // namespace

void run_detect_stencil(const Args& a, Report& r) {
  const std::vector<int> serial_cpu = cpu_set(1);
  pin_this_thread(serial_cpu);
  r.info_text("mask.serial", mask_string(serial_cpu));

  SetupTimes setup;
  const ParseTree t = build_tree(
      [] { return spr::fj::make_stencil(kCells, kGrain, true); }, setup);
  const ProgramCounts pc = count_program(t);

  // Warm-up, untimed.
  {
    time_plain(t);
    SpOrder sp(t);
    std::vector<double> discard;
    detect(t, sp, a.plant_wrong_answer, &discard);
  }
  // Every repetition repeats the warm-up's allocations, so its peak is
  // the workload's; read before the probe adds its own block.
  const double rss_mb = peak_rss_mb();

  // Timed phase: plain execution, detection and the host probe
  // alternate; a traced run adds a traced detection to every round.
  std::vector<double> plain_s, detect_s, probe_s, traced_s;
  std::vector<std::vector<double>> chunk_us;
  std::vector<double> maint_ns, query_ns, traced_self_ns;
  std::vector<RaceReport> verdicts;
  std::uint64_t traced_queries = 0;
  OmTotals om;
  const Quiet quiet(repeat_for(a.seconds, 3, serial_cpu, [&] {
    double plain = 0;
    for (int k = 0; k < kPlainRepeats; ++k) plain += time_plain(t);
    plain_s.push_back(plain / kPlainRepeats);
    {
      SpOrder sp(t);
      chunk_us.emplace_back();
      const auto t0 = Clock::now();
      verdicts.push_back(
          detect(t, sp, a.plant_wrong_answer, &chunk_us.back()));
      detect_s.push_back(seconds_between(t0, Clock::now()));
      if (verdicts.size() == 1) om.add(sp);
    }
    probe_s.push_back(probe_host());
    if (!a.trace) return;
    SpOrder sp(t);
    SpSpans spans;
    Timed<SpOrder&> algo(&spans, sp);
    const auto t0 = Clock::now();
    verdicts.push_back(spr::race::detect_races(t, algo));
    const double total_ns = seconds_between(t0, Clock::now()) * 1e9;
    traced_s.push_back(total_ns * 1e-9);
    maint_ns.push_back(true_ns(spans.maint));
    query_ns.push_back(true_ns(spans.query));
    traced_self_ns.push_back(total_ns - footprint_ns(spans.maint) -
                             footprint_ns(spans.query));
    traced_queries = spans.query.calls;
  }));

  // Oracle, untimed and after the memory reading: Mode::kSerialReference,
  // whose detection runs on its own ShadowMemory.
  spr::hybrid::ExecOptions oracle;
  oracle.mode = spr::hybrid::Mode::kSerialReference;
  oracle.detect_races = true;
  const spr::hybrid::ExecResult ref = spr::hybrid::run_parallel(t, oracle);
  for (const RaceReport& v : verdicts) r.check(same_verdict(v, ref.race_count));

  r.metric("fjprog.generate_s", median(setup.generate_s));
  r.metric("fjprog.lower_s", median(setup.lower_s));
  // The end-to-end times are scaled to the reference host's speed, each
  // round's by its own probe; set-up, seconds before the rounds, by their
  // median probe. The per-layer split and the trace overhead use raw times.
  const double host = host_factor(median(quiet.of(probe_s)));
  const double raw_wall = median(quiet.of(detect_s));
  const double wall = median(quiet.of(at_reference_speed(detect_s, probe_s)));
  const double plain = median(quiet.of(at_reference_speed(plain_s, probe_s)));
  r.info("host_factor", host);
  r.info("raw.wall_s", raw_wall);
  r.info("samples.setup", kSetupReps);
  quiet.report(r);
  r.info("threads", static_cast<double>(pc.threads));
  r.info("accesses", static_cast<double>(pc.accesses));
  r.info("oracle_races", static_cast<double>(ref.race_count));

  if (a.trace) {
    const double accesses = static_cast<double>(pc.accesses);
    r.metric("sporder.maint_ns_per_thread",
             median(quiet.of(maint_ns)) / static_cast<double>(pc.threads));
    r.metric("sporder.queries", static_cast<double>(traced_queries));
    r.metric("sporder.query_ns", median(quiet.of(query_ns)) /
                                     static_cast<double>(traced_queries));
    report_om(r, om);
    // Detection's self time in the traced run: the detect_races span minus
    // its SP-order child spans, minus plain execution.
    r.metric("race.self_ns_per_access",
             (median(quiet.of(traced_self_ns)) -
              median(quiet.of(plain_s)) * 1e9) /
                 accesses);
    r.metric("race.queries_per_access",
             static_cast<double>(verdicts.front().queries) / accesses);
    r.metric("race.races", static_cast<double>(verdicts.front().race_count));
    r.metric("trace.overhead_frac",
             median(quiet.of(traced_s)) / raw_wall - 1);
    return;
  }

  // As on ingest_streams, the tail is taken per round and its median
  // reported.
  for (std::size_t i = 0; i < chunk_us.size(); ++i)
    for (double& us : chunk_us[i]) us *= host_factor(probe_s[i]);
  const std::vector<double> chunks = quiet.pooled(chunk_us);
  std::vector<double> round_tail_us;
  for (const std::vector<double>& c : quiet.of(chunk_us))
    round_tail_us.push_back(tail(c));
  r.info("samples.batch", static_cast<double>(chunks.size()));

  r.metric("setup_s", median(setup.total_s) * host);
  r.metric("wall_s", wall);
  r.metric("slowdown", wall / plain);
  r.metric("events_per_s", static_cast<double>(pc.events) / wall);
  r.metric("batch_p50_us", median(chunks));
  r.metric("batch_p99_us", median(round_tail_us));
  r.metric("speedup_p4", kSerialSpeedup);
  r.metric("ns_per_thread", wall * 1e9 / static_cast<double>(pc.threads));
  r.metric("ns_per_query", (wall - plain) * 1e9 /
                               static_cast<double>(verdicts.front().queries));
  r.metric("peak_rss_mb", rss_mb);
}

}  // namespace bench
