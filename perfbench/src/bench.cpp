#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "seams.hpp"

namespace bench {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  if (out.empty()) out.push_back(0);
  return out;
}

std::vector<int> cpu_set(unsigned p) {
  static const std::vector<int> allowed = allowed_cpus();
  const std::size_t n = allowed.size();
  std::vector<int> out;
  for (unsigned i = 0; i < p; ++i) out.push_back(allowed[(n - 1 - i % n)]);
  std::sort(out.begin(), out.end());
  return out;
}

void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::string mask_string(const std::vector<int>& cpus) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cpus.size(); ++i) os << (i ? "," : "") << cpus[i];
  return os.str();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t steal_ticks(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;  // the cpu lines come first
    if (line.size() < 4 || line[3] == ' ') continue;  // the all-CPU line
    int cpu = -1;
    std::istringstream ls(line.substr(3));
    if (!(ls >> cpu) || std::find(cpus.begin(), cpus.end(), cpu) == cpus.end())
      continue;
    std::uint64_t v[8] = {};
    for (std::uint64_t& x : v) ls >> x;  // user ... softirq, steal
    total += v[7];
  }
  return total;
}

double probe_host(unsigned slot) {
  constexpr std::size_t kWords = std::size_t{1} << 22;  // 32 MB
  constexpr std::size_t kHotWords = std::size_t{1} << 17;  // its first 1 MB
  constexpr int kSteps = 1 << 20;
  constexpr unsigned kSlots = 8;
  static std::array<std::once_flag, kSlots> once;
  static std::array<std::unique_ptr<std::uint64_t[]>, kSlots> blocks;
  if (slot >= kSlots) throw std::out_of_range("probe_host: slot");
  // Allocated and faulted in on first use, untimed, and never freed while
  // the workload runs: the probe pays no page faults, and freeing a block
  // this large would raise glibc's mmap and trim thresholds for the whole
  // process, changing how the measured program's own allocations are
  // served.
  std::call_once(once[slot], [&] { blocks[slot].reset(new std::uint64_t[kWords]()); });
  std::uint64_t* m = blocks[slot].get();
  const auto t0 = Clock::now();
  std::uint64_t x = 1, acc = 0;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 40;
  };
  for (int i = 0; i < kSteps; ++i) acc += m[next() & (kWords - 1)]++;
  for (int i = 0; i < kSteps; ++i) acc += m[next() & (kHotWords - 1)]++;
  spr::util::do_not_optimize(acc);
  return seconds_between(t0, Clock::now());
}

void report_om(Report& r, const OmTotals& om) {
  r.metric("om.inserts", static_cast<double>(om.stats.inserts));
  r.metric("om.items_moved_per_insert",
           om.stats.inserts == 0 ? 0
                                 : static_cast<double>(om.stats.items_moved) /
                                       static_cast<double>(om.stats.inserts));
  r.metric("om.bucket_splits", static_cast<double>(om.stats.bucket_splits));
  r.metric("om.top_relabels", static_cast<double>(om.stats.top_relabels));
  r.metric("om.memory_bytes", static_cast<double>(om.memory_bytes));
}

const SpanCost& span_cost() {
  static const SpanCost cost = [] {
    constexpr int kN = 1 << 20;
    Span s;
    const auto start = Clock::now();
    for (int i = 0; i < kN; ++i) {
      const auto t0 = Clock::now();
      s.add(t0, Clock::now());
    }
    const double total = seconds_between(start, Clock::now()) * 1e9;
    spr::util::do_not_optimize(s.ns);
    return SpanCost{static_cast<double>(s.ns) / kN, total / kN};
  }();
  return cost;
}

}  // namespace bench
