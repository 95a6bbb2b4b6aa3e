#pragma once
// Shared plumbing of the repository benchmark: the command line, the
// result report, sample statistics, core placement, peak memory, and the
// helpers every workload uses (the plain-execution baseline, program
// counts, concurrent pinned runs).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "om/order_list.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"
#include "util/timing.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool plant_wrong_answer = false;  ///< self-test: feed a wrong SP answer
};

/// What one invocation reports: metric values, checked operations, and
/// free-form facts (sample counts, core masks) for the info line.
class Report {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

  /// One operation checked against its oracle.
  void check(bool ok) { check_n(1, ok ? 0 : 1); }
  void check_n(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void info(const std::string& key, double v);
  void info_text(const std::string& key, const std::string& text) {
    std::string q;
    q.reserve(text.size() + 2);
    q.append(1, '"').append(text).append(1, '"');
    info_[key] = std::move(q);
  }
  const std::map<std::string, std::string>& infos() const { return info_; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_number(double v);
inline void Report::info(const std::string& key, double v) {
  info_[key] = json_number(v);
}

// ---- statistics ---------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has at least ten samples beyond it:
/// p99 once there are >= 1000 samples, lower below that, never below the
/// median (so the median itself below 21 samples).
inline double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t i = (99 * n + 99) / 100 - 1;  // nearest-rank p99
  i = n > 10 ? std::min(i, n - 11) : 0;     // ten samples beyond it
  if (i < n / 2) i = n / 2;
  return v[i];
}

// ---- core placement -----------------------------------------------------

/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

/// The last `p` allowed CPUs (wrapping if fewer are allowed). The first
/// CPU of a virtual machine tends to take the host's interrupts, so
/// single-core runs avoid it.
std::vector<int> cpu_set(unsigned p);

/// Restricts the calling thread to `cpus`; threads it creates inherit
/// the mask.
void pin_this_thread(const std::vector<int>& cpus);

/// "0-3" / "0,2" rendering of a mask for the info line.
std::string mask_string(const std::vector<int>& cpus);

// ---- process memory -----------------------------------------------------

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// ---- program facts ------------------------------------------------------

struct ProgramCounts {
  std::uint64_t threads = 0;
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;  ///< length of the program's event trace
};

/// Counts as the event recorder would emit them: fork/switch/join per
/// internal node, begin/end per thread, one event per access.
inline ProgramCounts count_program(const spr::tree::ParseTree& t) {
  ProgramCounts c;
  c.threads = t.leaf_count();
  for (spr::tree::ThreadId i = 0; i < t.leaf_count(); ++i)
    c.accesses += t.accesses(i).size();
  c.events = 3 * (std::uint64_t{t.node_count()} - c.threads) + 2 * c.threads +
             c.accesses;
  return c;
}

/// Plain serial execution: the walk, each thread's spin work, and a read
/// of every access record, with no SP maintenance and no shadow memory.
/// This is the denominator of the Corollary 6 slowdown.
class PlainExec final : public spr::tree::WalkVisitor {
 public:
  explicit PlainExec(const spr::tree::ParseTree& t) : tree_(t) {}
  void visit_leaf(const spr::tree::Node& n) override {
    checksum ^= spr::util::spin_work(n.work);
    for (const spr::tree::Access& a : tree_.accesses(n.thread))
      checksum += a.loc + (a.write ? 1 : 0);
  }
  std::uint64_t checksum = 0;

 private:
  const spr::tree::ParseTree& tree_;
};

inline double time_plain(const spr::tree::ParseTree& t) {
  PlainExec v(t);
  const auto t0 = Clock::now();
  spr::tree::serial_walk(t, v);
  const auto t1 = Clock::now();
  spr::util::do_not_optimize(v.checksum);
  return seconds_between(t0, t1);
}

/// English + Hebrew order-maintenance totals of one or more SP-orders.
struct OmTotals {
  spr::om::OrderList::Stats stats;
  std::uint64_t memory_bytes = 0;

  template <typename SpOrderLike>
  void add(const SpOrderLike& sp) {
    for (const auto* s : {&sp.english_stats(), &sp.hebrew_stats()}) {
      stats.inserts += s->inserts;
      stats.items_moved += s->items_moved;
      stats.bucket_splits += s->bucket_splits;
      stats.top_relabels += s->top_relabels;
    }
    memory_bytes += sp.memory_bytes();
  }
};

/// Publishes the om.* per-layer metrics.
void report_om(Report& r, const OmTotals& om);

// ---- host interference --------------------------------------------------

/// Time the hypervisor gave `cpus` to something else (the steal column of
/// /proc/stat), in clock ticks; 0 where the kernel does not report it.
std::uint64_t steal_ticks(const std::vector<int>& cpus);

// ---- host speed ---------------------------------------------------------

/// One pass of a fixed memory-bound probe on the calling thread: 2^20
/// random read-modify-writes over a 32 MB block and 2^20 over its first
/// 1 MB. Returns its seconds. Each `slot` (0-7) has its own block, so
/// threads probing at once pass different slots. It runs none of the
/// library's code, so no change to the library moves it; what moves it is
/// the host's memory speed at that moment.
double probe_host(unsigned slot = 0);

/// probe_host()'s time alone on the reference host, a quiet 4-vCPU Intel
/// Xeon (Sapphire Rapids) virtual machine. The workloads scale their
/// end-to-end times to this host's speed.
inline constexpr double kProbeNominalS = 0.016;

/// The factor that scales a time measured next to a probe of `probe_s`
/// seconds to the reference host's speed.
inline double host_factor(double probe_s) { return kProbeNominalS / probe_s; }

/// Each round's time scaled by the host factor of the probe that followed
/// it in the same round: `v[i] * host_factor(probe_s[i])`.
inline std::vector<double> at_reference_speed(
    const std::vector<double>& v, const std::vector<double>& probe_s) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] * host_factor(probe_s[i]);
  return out;
}

// ---- timing loops -------------------------------------------------------

/// Calls `rep()` until `seconds` have passed, and at least `min_reps`
/// times. Returns the steal ticks `cpus` saw during each call.
template <typename Rep>
std::vector<std::uint64_t> repeat_for(double seconds, int min_reps,
                                      const std::vector<int>& cpus,
                                      Rep&& rep) {
  std::vector<std::uint64_t> steal;
  const auto start = Clock::now();
  for (int n = 0; n < min_reps || seconds_between(start, Clock::now()) < seconds;
       ++n) {
    const std::uint64_t s0 = steal_ticks(cpus);
    rep();
    steal.push_back(steal_ticks(cpus) - s0);
  }
  return steal;
}

/// The repetitions a run's figures are taken from: those that lost at
/// most the steal time of the least disturbed third. When the host took
/// no time from the run, that is every repetition; otherwise it keeps the
/// least disturbed third or more.
class Quiet {
 public:
  explicit Quiet(const std::vector<std::uint64_t>& steal) {
    std::vector<std::uint64_t> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t cut = sorted.empty() ? 0 : sorted[(sorted.size() - 1) / 3];
    for (std::uint64_t s : steal) {
      keep_.push_back(s <= cut);
      total_ += s;
    }
  }

  /// The kept repetitions' entries of a per-repetition vector.
  template <typename T>
  std::vector<T> of(const std::vector<T>& per_rep) const {
    std::vector<T> out;
    for (std::size_t i = 0; i < per_rep.size() && i < keep_.size(); ++i)
      if (keep_[i]) out.push_back(per_rep[i]);
    return out;
  }

  /// The kept repetitions' samples, pooled.
  std::vector<double> pooled(
      const std::vector<std::vector<double>>& per_rep) const {
    std::vector<double> out;
    for (const std::vector<double>& v : of(per_rep))
      out.insert(out.end(), v.begin(), v.end());
    return out;
  }

  /// Repetitions kept, and steal ticks over all of them, for `info`.
  void report(Report& r) const {
    r.info("samples.reps", static_cast<double>(keep_.size()));
    r.info("samples.kept",
           static_cast<double>(std::count(keep_.begin(), keep_.end(), true)));
    r.info("steal_ticks", static_cast<double>(total_));
  }

 private:
  std::vector<bool> keep_;
  std::uint64_t total_ = 0;
};

/// Runs `k` threads, thread i pinned to cpu_set(k)[i]. Each thread calls
/// `prepare(i)` untimed, which returns the timed body; all bodies are
/// released together. Returns the seconds from the release until the last
/// body returned. An exception in any thread is rethrown after all join.
template <typename Prepare>
double run_pinned_concurrently(unsigned k, Prepare&& prepare) {
  const std::vector<int> cpus = cpu_set(k);
  std::latch ready(static_cast<std::ptrdiff_t>(k));
  std::latch go(1);
  std::vector<Clock::time_point> end(k);
  std::vector<std::exception_ptr> err(k);
  std::vector<std::thread> threads;
  threads.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      bool arrived = false;
      try {
        pin_this_thread({cpus[i]});
        auto body = prepare(i);
        ready.count_down();
        arrived = true;
        go.wait();
        body();
      } catch (...) {
        err[i] = std::current_exception();
        if (!arrived) ready.count_down();
        go.wait();
      }
      end[i] = Clock::now();
    });
  }
  ready.wait();
  const auto start = Clock::now();
  go.count_down();
  for (auto& th : threads) th.join();
  for (const auto& e : err)
    if (e) std::rethrow_exception(e);
  return seconds_between(start, *std::max_element(end.begin(), end.end()));
}

}  // namespace bench
