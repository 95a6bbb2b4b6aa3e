#pragma once
// Wrappers the benchmark slots into the program's template seams: the
// SpAlgo parameter of race::detect_races, the Sp / Shadow parameters of
// race::stream::Service, and the GlobalOm parameter of the SP-hybrid
// engine. Each forwards to the real implementation.
//
// Forward<Inner, Hooks> forwards every SP call to `Inner` and lets a hook
// policy decide what wraps it. Member functions of a class template are
// only instantiated when called, so one Forward serves both the
// parse-tree callback interface (enter_internal, ...) and the stream
// event interface (on_fork, ...). The policies:
//
//   ChunkHooks   - untraced: stamps the clock every kChunkThreads
//                  threads, detect_stencil's batch latency.
//   SpanHooks    - traced: times every SP callback and query into Spans.
//   SerialAnswer - self-test: a planted wrong answer (every query says
//                  "serial"), which the correctness gate must catch.
//
// TimedShadow times every shadow-memory access, and ReversedOm is the
// self-test's wrong global order for SP-hybrid.
//
// `Inner` may be a reference type (wrap a caller-owned SpOrder) or a
// value type (the service constructs its per-stream Sp in place).

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "om/concurrent_om.hpp"
#include "sptree/sp_maintenance.hpp"

namespace bench {

inline constexpr std::uint32_t kChunkThreads = 256;

/// Accumulated time and call counts of one traced layer.
struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
    ++calls;
  }
  void operator+=(const Span& o) {
    ns += o.ns;
    calls += o.calls;
  }
};

struct SpSpans {
  Span maint;  ///< structural callbacks / events
  Span query;  ///< precedes()
};

/// Clock cost of one span, measured on an empty span: `inner_ns` is what
/// the span itself records, `full_ns` what it adds to an enclosing span.
struct SpanCost {
  double inner_ns = 0;
  double full_ns = 0;
};
const SpanCost& span_cost();

/// Time spent in the spanned layer, without the clock's own cost.
inline double true_ns(const Span& s) {
  return static_cast<double>(s.ns) -
         span_cost().inner_ns * static_cast<double>(s.calls);
}

/// Time the spans occupy in whatever encloses them, clock cost included.
inline double footprint_ns(const Span& s) {
  return true_ns(s) + span_cost().full_ns * static_cast<double>(s.calls);
}

/// The hook policy that changes nothing; the others override parts of it.
struct PassThrough {
  template <typename F>
  void maint(F&& f) {
    f();
  }
  void after_leaf() {}
  template <typename F>
  bool query(spr::tree::ThreadId, spr::tree::ThreadId, F&& f) {
    return f();
  }
};

template <typename Inner, typename Hooks>
class Forward {
 public:
  Forward() = default;
  template <typename... A>
  explicit Forward(Hooks hooks, A&&... a)
      : hooks_(std::move(hooks)), inner_(std::forward<A>(a)...) {}

  // Parse-tree callbacks (race::detect_races, the serial walks).
  void enter_internal(const spr::tree::Node& n) {
    hooks_.maint([&] { inner_.enter_internal(n); });
  }
  void between_children(const spr::tree::Node& n) {
    hooks_.maint([&] { inner_.between_children(n); });
  }
  void leave_internal(const spr::tree::Node& n) {
    hooks_.maint([&] { inner_.leave_internal(n); });
  }
  void visit_leaf(const spr::tree::Node& n) {
    hooks_.maint([&] { inner_.visit_leaf(n); });
  }
  void leave_leaf(const spr::tree::Node& n) {
    hooks_.maint([&] { inner_.leave_leaf(n); });
    hooks_.after_leaf();
  }

  // Stream events (race::stream::Service's Sp).
  void on_fork(bool series) {
    hooks_.maint([&] { inner_.on_fork(series); });
  }
  void on_switch() {
    hooks_.maint([&] { inner_.on_switch(); });
  }
  void on_join() {
    hooks_.maint([&] { inner_.on_join(); });
  }
  void on_thread_begin(spr::tree::ThreadId t) {
    hooks_.maint([&] { inner_.on_thread_begin(t); });
  }

  bool precedes(spr::tree::ThreadId u, spr::tree::ThreadId v) {
    return hooks_.query(u, v, [&] { return inner_.precedes(u, v); });
  }

  std::size_t memory_bytes() const { return inner_.memory_bytes(); }
  const std::remove_reference_t<Inner>& inner() const { return inner_; }

 private:
  Hooks hooks_;
  Inner inner_;
};

class ChunkHooks : public PassThrough {
 public:
  explicit ChunkHooks(std::vector<double>* chunk_us)
      : chunk_us_(chunk_us), last_(Clock::now()) {}
  void after_leaf() {
    if (++threads_ != kChunkThreads) return;
    const auto now = Clock::now();
    chunk_us_->push_back(seconds_between(last_, now) * 1e6);
    last_ = now;
    threads_ = 0;
  }

 private:
  std::vector<double>* chunk_us_;
  Clock::time_point last_;
  std::uint32_t threads_ = 0;
};

class SpanHooks {
 public:
  SpanHooks(SpSpans* spans) : spans_(spans) {}  // implicit: see Timed
  template <typename F>
  void maint(F&& f) {
    const auto t0 = Clock::now();
    f();
    spans_->maint.add(t0, Clock::now());
  }
  void after_leaf() {}
  template <typename F>
  bool query(spr::tree::ThreadId, spr::tree::ThreadId, F&& f) {
    const auto t0 = Clock::now();
    const bool r = f();
    spans_->query.add(t0, Clock::now());
    return r;
  }

 private:
  SpSpans* spans_;
};

struct SerialAnswer : PassThrough {
  template <typename F>
  bool query(spr::tree::ThreadId u, spr::tree::ThreadId v, F&&) {
    return u != v;
  }
};

template <typename Inner>
using ChunkClock = Forward<Inner, ChunkHooks>;
/// Constructible from an SpSpans* alone, which is how the service's
/// open_stream(args...) hands each stream's Sp its sink.
template <typename Inner>
using Timed = Forward<Inner, SpanHooks>;
template <typename Inner>
using AlwaysSerial = Forward<Inner, SerialAnswer>;

/// Shadow time of the calling client thread. A stream has one submitter
/// at a time and each client owns one stream, so a per-thread total is a
/// per-stream total; the shadow is built by the service from its shard
/// count alone and cannot be handed a sink.
inline thread_local Span tls_shadow_span;

template <typename Inner>
class TimedShadow {
 public:
  explicit TimedShadow(std::uint32_t shards) : inner_(shards) {}

  template <typename SerialFn>
  void apply(std::uint32_t stream, const spr::tree::Access& a,
             spr::tree::ThreadId v, SerialFn&& serial,
             std::uint64_t& race_count) {
    const auto t0 = Clock::now();
    inner_.apply(stream, a, v, std::forward<SerialFn>(serial), race_count);
    tls_shadow_span.add(t0, Clock::now());
  }

  std::size_t memory_bytes() const { return inner_.memory_bytes(); }

 private:
  Inner inner_;
};

/// Self-test: SP-hybrid's global order with every answer reversed. Only
/// queries between threads of different traces reach it, so a run with
/// steals gets wrong answers and a run without them does not.
class ReversedOm : public spr::om::ConcurrentOrderList {
 public:
  static constexpr const char* kName = "reversed";
  bool precedes(const Item* a, const Item* b) const {
    return !ConcurrentOrderList::precedes(a, b);
  }
};

}  // namespace bench
