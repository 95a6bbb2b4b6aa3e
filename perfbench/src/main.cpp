// perfbench: the repository benchmark's workload runner. One invocation
// runs one workload in its own process and prints, as its last line, a
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--plant-wrong-answer]
//
// --plant-wrong-answer is the self-test: it swaps in a wrong SP answer so
// the correctness gate must report failure. perfbench/run.py builds this
// program and is the command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "seams.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that it does.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"slowdown", "x"},         {"events_per_s", "1/s"},
    {"batch_p50_us", "us"},    {"batch_p99_us", "us"},
    {"speedup_p4", "x"},       {"ns_per_thread", "ns"},
    {"ns_per_query", "ns"},    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"fjprog.generate_s", "s"},
    {"fjprog.lower_s", "s"},
    {"fjprog.record_s", "s"},
    {"sporder.maint_ns_per_thread", "ns"},
    {"sporder.queries", "count"},
    {"sporder.query_ns", "ns"},
    {"om.inserts", "count"},
    {"om.items_moved_per_insert", "ratio"},
    {"om.bucket_splits", "count"},
    {"om.top_relabels", "count"},
    {"om.memory_bytes", "bytes"},
    {"race.self_ns_per_access", "ns"},
    {"race.queries_per_access", "ratio"},
    {"race.races", "count"},
    {"race.stream.submit_ns_per_event", "ns"},
    {"race.stream.sp_ns_per_event", "ns"},
    {"race.stream.shadow_ns_per_access", "ns"},
    {"race.stream.self_ns_per_event", "ns"},
    {"race.stream.queries_per_access", "ratio"},
    {"race.stream.memory_bytes", "bytes"},
    {"race.stream.rejects", "count"},
    {"sphybrid.hybrid_s.p1", "s"},
    {"sphybrid.hybrid_s.p2", "s"},
    {"sphybrid.hybrid_s.p4", "s"},
    {"sphybrid.plain_s.p1", "s"},
    {"sphybrid.plain_s.p2", "s"},
    {"sphybrid.plain_s.p4", "s"},
    {"sphybrid.steals.p2", "count"},
    {"sphybrid.steals.p4", "count"},
    {"sphybrid.om_inserts.p2", "count"},
    {"sphybrid.om_inserts.p4", "count"},
    {"sphybrid.lock_wait_ns.p2", "ns"},
    {"sphybrid.lock_wait_ns.p4", "ns"},
    {"sphybrid.query_retries.p2", "count"},
    {"sphybrid.query_retries.p4", "count"},
    {"sphybrid.fast_query_frac.p2", "ratio"},
    {"sphybrid.fast_query_frac.p4", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload "
               "<detect_stencil|ingest_streams|hybrid_fib> "
               "--seed <n> --seconds <s> --trace <0|1> [--plant-wrong-answer]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (k == "--plant-wrong-answer") {
      a.plant_wrong_answer = true;
    } else {
      return usage();
    }
  }

  using RunFn = void (*)(const bench::Args&, bench::Report&);
  RunFn run = nullptr;
  if (a.workload == "detect_stencil") run = bench::run_detect_stencil;
  if (a.workload == "ingest_streams") run = bench::run_ingest_streams;
  if (a.workload == "hybrid_fib") run = bench::run_hybrid_fib;
  if (run == nullptr || !(a.seconds > 0)) return usage();

  bench::Report r;
  r.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.info_text("allowed_cpus", bench::mask_string(bench::allowed_cpus()));
  try {
    run(a, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 3;
  }
  if (a.trace) {
    r.info("span_cost_ns", bench::span_cost().full_ns);
    r.metric("fail_frac", r.attempted() == 0
                              ? 1.0
                              : static_cast<double>(r.failed()) /
                                    static_cast<double>(r.attempted()));
  }

  // Per-layer metrics a workload does not exercise are reported as 0;
  // every end-to-end metric must have been measured.
  std::ostringstream metrics;
  const char* sep = "";
  const auto emit = [&](const MetricDef& d, double v) {
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: metric " << d.name << " is not finite\n";
      std::exit(3);
    }
    metrics << sep << '"' << d.name << "\": {\"value\": "
            << bench::json_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    sep = ", ";
  };
  if (a.trace) {
    for (const auto& d : kPerLayer)
      emit(d, r.has(d.name) ? r.metrics().at(d.name) : 0.0);
  } else {
    for (const auto& d : kEndToEnd) {
      if (!r.has(d.name)) {
        std::cerr << "perfbench: " << a.workload << " did not measure "
                  << d.name << "\n";
        return 3;
      }
      emit(d, r.metrics().at(d.name));
    }
  }

  std::cout << "{\"info\": {\"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed;
  for (const auto& [k, v] : r.infos()) std::cout << ", \"" << k << "\": " << v;
  std::cout << "}}\n";

  const bool correct = r.attempted() > 0 && r.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted()
            << ", \"failed\": " << r.failed() << ", \"metrics\": {" << metrics.str()
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
