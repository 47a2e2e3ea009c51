// Fleet observability: a process-wide registry of named counters, gauges,
// and histograms — the one place every layer of the pipeline reports into
// and every exporter reads from (DESIGN.md, "Observability").
//
// Design rules:
//
//  * Counters are per-thread-sharded atomics: the ingest pool's workers
//    record without contention (each thread owns a cache line; value() sums
//    the stripes). Because a counter's value is the sum of a multiset of
//    increments — and the differential suites pin that the work performed
//    is identical for every worker count — counter snapshots are
//    byte-identical across `ingest_threads`. Count-type metrics may
//    therefore be asserted in tests; timing metrics (histograms fed by
//    SB_SPAN) are exported but never asserted.
//
//  * Snapshots are deterministic: metrics are kept name-sorted, and
//    counters_text() renders counters alone as stable "name value" lines —
//    the byte-identity surface the ingest_batch differential suite compares.
//
//  * Delta reads: delta_snapshot() returns counter values since the
//    previous delta_snapshot() (gauges and histograms report their current
//    state). World::step_day uses this for the per-day metrics series.
//
//  * Handles are stable: counter()/gauge()/histogram() return references
//    that live as long as the registry. reset() zeroes values in place, so
//    cached handles (including SB_SPAN call sites) survive it.
//
// Naming convention: dot-separated lowercase paths, `<subsystem>.<noun>`,
// counters suffixed `_total`, span histograms suffixed `.us` (microseconds).
// Exporters map these to Prometheus names (softborg_ prefix, dots to
// underscores).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fields.h"
#include "common/metrics.h"

namespace softborg::obs {

// Monotonic event count, striped across cache-line-sized cells so
// concurrent writers (such as the ingest pool's workers) never share a
// line.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[thread_stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 16;
  static constexpr std::size_t kNoStripe = ~std::size_t{0};
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  // Each thread is assigned one stripe round-robin on first use. The TLS
  // slot is constant-initialized, so the fast path is one plain TLS load
  // with no init guard; the one-time assignment is the out-of-line path.
  // `constinit` on this declaration is what lets other translation units
  // know that: without it GCC reaches the slot through a TLS init wrapper
  // call, which UBSan reports as a null-pointer load.
  static std::size_t thread_stripe() {
    const std::size_t s = tls_stripe_;
    return s != kNoStripe ? s : assign_stripe();
  }
  static std::size_t assign_stripe();
  static constinit thread_local std::size_t tls_stripe_;

  std::array<Cell, kStripes> cells_{};
};

// Last-write-wins instantaneous value (queue depths, sizes). Writers are
// expected to be single-threaded per gauge (SimNet, the World loop).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// A mutex-guarded log2-bucketed histogram (common/metrics.h). Spans record
// at stage granularity — a handful of records per pump round — so a plain
// mutex is contention-free in practice; determinism is not required here
// (timing metrics are exported, never asserted).
class HistogramMetric {
 public:
  void record(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(value);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.reset();
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

// Point-in-time view of a registry, name-sorted within each kind.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterValue&) const = default;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
    bool operator==(const GaugeValue&) const = default;
  };
  struct HistogramValue {
    std::string name;
    Histogram hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  // Stable "name value\n" rendering of the counters alone — the surface
  // differential tests compare byte-for-byte across worker counts.
  std::string counters_text() const;

  // Value of one counter by exact name (binary search over the name-sorted
  // vector); nullopt when the counter is absent from this snapshot.
  std::optional<std::uint64_t> counter_value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  // The process-wide registry every instrumentation site reports into.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or registers a metric. Returned references stay valid for the
  // registry's lifetime; call sites cache them (registration takes a lock,
  // recording does not).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  // Cumulative snapshot, deterministically ordered.
  MetricsSnapshot snapshot() const;

  // Counters since the previous delta_snapshot() (the first call baselines
  // against zero); gauges and histograms report their current state. The
  // baseline advances on every call.
  MetricsSnapshot delta_snapshot();

  // Convenience: advance the delta baseline without building a snapshot.
  void rebaseline() { (void)delta_snapshot(); }

  // Zeroes every metric in place (handles stay valid) and clears the delta
  // baseline. Test isolation only — production readers use deltas.
  void reset();

  std::size_t num_metrics() const;

 private:
  mutable std::mutex mu_;
  // Name-sorted maps double as the deterministic snapshot order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
  std::map<std::string, std::uint64_t, std::less<>> counter_baseline_;
};

// Global collection switch (default on). Instrumentation sites guard their
// counter/gauge writes with obs::enabled() so the cost of the telemetry
// layer can be measured (bench_e6) and eliminated when unwanted; SB_SPAN
// has its own, separate sampling switch (span.h), default off.
namespace detail {
extern std::atomic<bool> g_enabled;
}
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Delta publication of a stats struct: one registry counter per field whose
// list entry names a counter (common/fields.h), under `prefix`, resolved
// once at construction. Callers keep a baseline copy of the struct and hold
// the set in a function-local static, so a publish costs one compare per
// field. A double field counts whole microseconds (its counter is named
// `*_us_total`).
template <typename T>
class CounterSet {
 public:
  explicit CounterSet(std::string_view prefix = {}) {
    std::size_t i = 0;
    for_each_field<T>([&](const auto& entry) {
      if (entry.counter != nullptr) {
        counters_[i] = &MetricsRegistry::global().counter(
            std::string(prefix) + entry.counter);
      }
      ++i;
    });
  }

  // Adds each published field's growth since `base` to its counter, then
  // advances `base` to `now`.
  void publish(const T& now, T& base) const {
    std::size_t i = 0;
    for_each_field<T>([&](const auto& entry) {
      if (Counter* c = counters_[i++]) {
        const std::uint64_t n = count(now.*entry.member);
        const std::uint64_t b = count(base.*entry.member);
        if (n > b) c->add(n - b);
      }
    });
    base = now;
  }

 private:
  template <typename M>
  static std::uint64_t count(M v) {
    if constexpr (std::is_floating_point_v<M>) {
      return static_cast<std::uint64_t>(v * 1e6);
    } else {
      return v;
    }
  }

  std::array<Counter*, kFieldCount<T>> counters_{};
};

}  // namespace softborg::obs
