// ingest_streams: the untrusted service path. Two client threads, one
// stream each, replay the recorded stencil trace through
// race::stream::IngestService in 256-event batches. Closed loop: submit()
// is synchronous, so each client sends its next batch only after the
// reply to the previous one. Validation is on and the two streams share
// the shadow's shard locks.

#include <memory>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "fjprog/record.hpp"
#include "race/detector.hpp"
#include "race/stream/service.hpp"
#include "seams.hpp"
#include "sporder/sp_order.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

namespace stream = spr::race::stream;

constexpr std::uint64_t kCells = std::uint64_t{1} << 14;
constexpr std::uint32_t kGrain = 4;
constexpr unsigned kClients = 2;
constexpr std::size_t kBatchEvents = 256;
constexpr int kPlainRepeats = 128;

using PlainService = stream::IngestService;
using PlantedService = stream::Service<AlwaysSerial<stream::StreamingSpOrder>>;
using TracedService =
    stream::Service<Timed<stream::StreamingSpOrder>,
                    TimedShadow<stream::DeterminacyShadow>>;

/// The recorded trace, cut into batches for every stream.
struct Batches {
  std::vector<std::vector<stream::Batch>> per_stream;
  std::uint64_t events_per_stream = 0;
};

struct ClientResult {
  std::vector<double> latency_us;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  double submit_ns = 0;
  Span shadow;
  SpSpans sp;  ///< traced runs only
  spr::race::RaceReport races;
};

/// The trace with every access moved to stream `s`'s own addresses, as
/// if each client ran its own copy of the program: the streams share
/// shard locks where their addresses hash to the same shard, not on every
/// access in lockstep.
std::vector<stream::Event> at_own_addresses(std::vector<stream::Event> events,
                                            stream::StreamId s) {
  for (stream::Event& e : events)
    if (e.kind == stream::EventKind::kAccess) e.loc += std::uint64_t{s} << 40;
  return events;
}

/// One client: submits its stream's batches in order, each after the
/// previous reply, then finishes the stream.
template <typename Svc>
void client(Svc& svc, const std::vector<stream::Batch>& batches,
            stream::StreamId s, ClientResult& out) {
  tls_shadow_span = Span{};
  out.latency_us.reserve(batches.size());
  for (const stream::Batch& b : batches) {
    const auto t0 = Clock::now();
    const stream::IngestResult res = svc.submit(b);
    const auto t1 = Clock::now();
    out.latency_us.push_back(seconds_between(t0, t1) * 1e6);
    out.submit_ns += seconds_between(t0, t1) * 1e9;
    ++(res.ok() ? out.ok : out.rejected);
  }
  ++(svc.finish(s).ok() ? out.ok : out.rejected);
  out.shadow = tls_shadow_span;
  out.races = svc.report(s).races;
}

/// Opens one stream per client; traced services hand each stream's SP
/// engine the client's span sink.
template <typename Svc>
std::unique_ptr<Svc> open_service(std::vector<ClientResult>& out) {
  auto svc = std::make_unique<Svc>();
  for (unsigned i = 0; i < kClients; ++i) {
    if constexpr (std::is_same_v<Svc, TracedService>)
      svc->open_stream(&out[i].sp);
    else
      svc->open_stream();
  }
  return svc;
}

/// All clients at once, one per core. Returns the wall time.
template <typename Svc>
double ingest_concurrently(Svc& svc, const Batches& in,
                           std::vector<ClientResult>& out) {
  return run_pinned_concurrently(kClients, [&](unsigned i) {
    return [&, i] { client(svc, in.per_stream[i], i, out[i]); };
  });
}

}  // namespace

void run_ingest_streams(const Args& a, Report& r) {
  const std::vector<int> serial_cpu = cpu_set(1);
  pin_this_thread(serial_cpu);
  r.info_text("mask.serial", mask_string(serial_cpu));
  r.info_text("mask.clients", mask_string(cpu_set(kClients)));

  // Set-up: generate, lower, record the trace, cut it into per-stream
  // batches, and build the service, several times.
  SetupTimes setup;
  const Input<Batches> input = build_input(
      [] { return spr::fj::make_stencil(kCells, kGrain, true); },
      [](const spr::tree::ParseTree& t) {
        Batches b;
        const std::vector<stream::Event> events = spr::fj::record_events(t);
        for (unsigned s = 0; s < kClients; ++s)
          b.per_stream.push_back(spr::fj::make_batches(
              at_own_addresses(events, s), s, kBatchEvents));
        b.events_per_stream = events.size();
        std::vector<ClientResult> unused(kClients);
        open_service<PlainService>(unused);
        return b;
      },
      setup);
  const spr::tree::ParseTree& tree = input.tree;
  const Batches& in = input.extra;
  const ProgramCounts pc = count_program(tree);
  const double events = static_cast<double>(in.events_per_stream * kClients);
  const double accesses = static_cast<double>(pc.accesses * kClients);

  // Oracle, untimed: the in-process detector's verdict on the same tree.
  spr::order::SpOrder oracle_sp(tree);
  const spr::race::RaceReport want = spr::race::detect_races(tree, oracle_sp);
  std::uint64_t rejects = 0;
  const auto check = [&](const std::vector<ClientResult>& out) {
    for (const ClientResult& c : out) {
      r.check_n(c.ok + c.rejected, c.rejected);
      r.check(c.races.race_count == want.race_count &&
              c.races.has_race() == want.has_race());
      rejects += c.rejected;
    }
  };
  const auto total_queries = [](const std::vector<ClientResult>& out) {
    std::uint64_t q = 0;
    for (const ClientResult& c : out) q += c.races.queries;
    return q;
  };

  // Untraced concurrent ingest, as the end-to-end metrics see it. Batch
  // latencies are kept per repetition; the tail is taken per repetition
  // and its median reported, so a burst of host interference in a few
  // repetitions does not set it.
  std::vector<std::vector<double>> latency_us;
  std::vector<double> rep_tail_us;
  double service_bytes = 0;
  std::uint64_t queries = 0;
  const auto ingest_all = [&]() {
    std::vector<ClientResult> out(kClients);
    double wall = 0;
    if (a.plant_wrong_answer) {
      auto svc = open_service<PlantedService>(out);
      wall = ingest_concurrently(*svc, in, out);
    } else {
      auto svc = open_service<PlainService>(out);
      wall = ingest_concurrently(*svc, in, out);
      service_bytes = static_cast<double>(svc->memory_bytes());
    }
    check(out);
    queries = total_queries(out);
    std::vector<double> rep_us;
    for (const ClientResult& c : out)
      rep_us.insert(rep_us.end(), c.latency_us.begin(), c.latency_us.end());
    rep_tail_us.push_back(tail(rep_us));
    latency_us.push_back(std::move(rep_us));
    return wall;
  };

  ingest_all();  // warm-up
  latency_us.clear();
  rep_tail_us.clear();
  // Every repetition repeats the warm-up's allocations, so its peak is
  // the workload's; read before the probes add their own blocks.
  const double rss_mb = peak_rss_mb();

  std::vector<double> ingest_s, serial_ingest_s, plain1_s, traced_s;
  std::vector<double> probe_max_s, probe_typ_s, probe1_s;
  std::vector<double> submit_ns, sp_ns, maint_ns, query_ns, shadow_ns,
      self_ns;
  std::uint64_t traced_queries = 0;
  OmTotals om;
  const Quiet quiet(repeat_for(a.seconds, 3, cpu_set(kClients), [&] {
    ingest_s.push_back(ingest_all());
    // The host probe on every client core at once, as the clients ran:
    // the slowest core's probe scales the ingest's wall time (the last
    // client to finish sets it), the typical core's its batch latencies.
    // The serial phases below take a one-core probe.
    std::vector<double> probe_s(kClients);
    run_pinned_concurrently(kClients, [&](unsigned i) {
      return [&, i] { probe_s[i] = probe_host(i); };
    });
    probe_max_s.push_back(*std::max_element(probe_s.begin(), probe_s.end()));
    probe_typ_s.push_back(median(probe_s));
    if (a.trace) {
      std::vector<ClientResult> out(kClients);
      auto svc = open_service<TracedService>(out);
      traced_s.push_back(ingest_concurrently(*svc, in, out));
      check(out);
      Span maint, query, shadow;
      double submit = 0;
      for (const ClientResult& c : out) {
        maint += c.sp.maint;
        query += c.sp.query;
        shadow += c.shadow;
        submit += c.submit_ns;
      }
      // Spans nest as submit > {sp maint, shadow > sp query}; each layer's
      // self time is its span minus the spans inside it.
      const double clock_ns =
          span_cost().full_ns *
          static_cast<double>(maint.calls + shadow.calls + query.calls);
      submit_ns.push_back(submit - clock_ns);
      maint_ns.push_back(true_ns(maint));
      query_ns.push_back(true_ns(query));
      sp_ns.push_back(true_ns(maint) + true_ns(query));
      shadow_ns.push_back(true_ns(shadow) - footprint_ns(query));
      self_ns.push_back(submit - footprint_ns(maint) - footprint_ns(shadow));
      traced_queries = query.calls;
      if (om.stats.inserts == 0)
        for (unsigned s = 0; s < kClients; ++s) om.add(svc->sp(s).inner());
      return;
    }
    {
      // One client ingesting every stream back to back, on one core.
      std::vector<ClientResult> out(kClients);
      auto svc = open_service<PlainService>(out);
      const auto t0 = Clock::now();
      for (unsigned s = 0; s < kClients; ++s)
        client(*svc, in.per_stream[s], s, out[s]);
      serial_ingest_s.push_back(seconds_between(t0, Clock::now()));
      check(out);
    }
    // Plain execution of one program, what each client core would run
    // without detection, on the serial core; repeated so the sample is
    // not one short walk.
    const auto t0 = Clock::now();
    for (int k = 0; k < kPlainRepeats; ++k) time_plain(tree);
    plain1_s.push_back(seconds_between(t0, Clock::now()) / kPlainRepeats);
    probe1_s.push_back(probe_host());
  }));

  // The end-to-end times are scaled to the reference host's speed, each
  // round's by its own probes; set-up, seconds before the rounds on the
  // serial core, by their median one-core probe. The per-layer split and
  // the trace overhead use raw times.
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    for (double& us : latency_us[i]) us *= host_factor(probe_typ_s[i]);
    rep_tail_us[i] *= host_factor(probe_typ_s[i]);
  }
  const std::vector<double> latency = quiet.pooled(latency_us);
  r.info("samples.setup", kSetupReps);
  quiet.report(r);
  r.info("samples.batch", static_cast<double>(latency.size()));
  r.info("events", events);
  r.info("oracle_races", static_cast<double>(want.race_count));
  r.metric("fjprog.generate_s", median(setup.generate_s));
  r.metric("fjprog.lower_s", median(setup.lower_s));
  r.metric("fjprog.record_s", median(setup.prepare_s));
  const double raw_wall = median(quiet.of(ingest_s));
  const double wall =
      median(quiet.of(at_reference_speed(ingest_s, probe_max_s)));
  r.info("host_factor", host_factor(median(quiet.of(probe_max_s))));
  r.info("raw.wall_s", raw_wall);

  if (a.trace) {
    const double threads = static_cast<double>(pc.threads * kClients);
    r.metric("sporder.maint_ns_per_thread", median(quiet.of(maint_ns)) / threads);
    r.metric("sporder.queries", static_cast<double>(traced_queries));
    r.metric("sporder.query_ns",
             median(quiet.of(query_ns)) / static_cast<double>(traced_queries));
    report_om(r, om);
    r.metric("race.stream.submit_ns_per_event", median(quiet.of(submit_ns)) / events);
    r.metric("race.stream.sp_ns_per_event", median(quiet.of(sp_ns)) / events);
    r.metric("race.stream.shadow_ns_per_access", median(quiet.of(shadow_ns)) / accesses);
    r.metric("race.stream.self_ns_per_event", median(quiet.of(self_ns)) / events);
    r.metric("race.stream.queries_per_access",
             static_cast<double>(queries) / accesses);
    r.metric("race.stream.memory_bytes", service_bytes);
    r.metric("race.stream.rejects", static_cast<double>(rejects));
    r.metric("trace.overhead_frac",
             median(quiet.of(traced_s)) / raw_wall - 1);
    return;
  }

  const double plain =
      median(quiet.of(at_reference_speed(plain1_s, probe1_s)));
  r.metric("setup_s", median(setup.total_s) *
                          host_factor(median(quiet.of(probe1_s))));
  r.metric("wall_s", wall);
  // Ratios of two times of the same rounds use raw times: the client
  // cores' probe and the serial core's probe do not move together, and
  // scaling each side by its own would add their difference.
  r.metric("slowdown", raw_wall / median(quiet.of(plain1_s)));
  r.metric("events_per_s", events / wall);
  r.metric("batch_p50_us", median(latency));
  r.metric("batch_p99_us", median(quiet.of(rep_tail_us)));
  r.metric("speedup_p4", median(quiet.of(serial_ingest_s)) / raw_wall);
  r.metric("ns_per_thread",
           wall * 1e9 / static_cast<double>(pc.threads * kClients));
  r.metric("ns_per_query",
           (wall - plain) * 1e9 / static_cast<double>(queries));
  r.metric("peak_rss_mb", rss_mb);
}

}  // namespace bench
