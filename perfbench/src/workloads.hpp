#pragma once
// The workloads. Each fills `r` with the end-to-end metrics (untraced
// run) or its per-layer metrics (traced run), and records every checked
// operation; main() prints the result.

#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "fjprog/lower.hpp"

namespace bench {

void run_detect_stencil(const Args& a, Report& r);
void run_ingest_streams(const Args& a, Report& r);
void run_hybrid_fib(const Args& a, Report& r);

/// Number of times each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupReps = 7;

struct SetupTimes {
  std::vector<double> generate_s, lower_s, prepare_s, total_s;
};

/// A workload's input: its parse tree and what its preparation step
/// derived from it.
template <typename Extra>
struct Input {
  spr::tree::ParseTree tree;
  Extra extra{};
};

/// Generates and lowers the workload's program and runs `prepare` on the
/// fresh tree, kSetupReps times, timing each step and the whole; returns
/// the last tree with the last preparation.
template <typename Generate, typename Prepare>
auto build_input(Generate&& generate, Prepare&& prepare, SetupTimes& times) {
  using Extra = std::invoke_result_t<Prepare&, const spr::tree::ParseTree&>;
  Input<Extra> in;
  for (int i = 0; i < kSetupReps; ++i) {
    in = Input<Extra>{};
    const auto t0 = Clock::now();
    Input<Extra> fresh;
    {
      const spr::fj::FjProg prog = generate();
      const auto t1 = Clock::now();
      fresh.tree = spr::fj::lower_to_parse_tree(prog);
      const auto t2 = Clock::now();
      fresh.extra = prepare(std::as_const(fresh.tree));
      times.generate_s.push_back(seconds_between(t0, t1));
      times.lower_s.push_back(seconds_between(t1, t2));
      times.prepare_s.push_back(seconds_between(t2, Clock::now()));
    }
    times.total_s.push_back(seconds_between(t0, Clock::now()));
    in = std::move(fresh);
  }
  return in;
}

/// build_input for a workload that runs on the parse tree alone.
template <typename Generate>
spr::tree::ParseTree build_tree(Generate&& generate, SetupTimes& times) {
  return build_input(
             std::forward<Generate>(generate),
             [](const spr::tree::ParseTree&) { return std::monostate{}; },
             times)
      .tree;
}

/// speedup_p4 of a serial workload: one serial run uses one core
/// whatever the core count, so its speedup at P = 4 is 1 by definition.
inline constexpr double kSerialSpeedup = 1.0;

}  // namespace bench
