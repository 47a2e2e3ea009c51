#include "obs/registry.h"

#include <algorithm>
#include <cstdio>

namespace softborg::obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

constinit thread_local std::size_t Counter::tls_stripe_ = Counter::kNoStripe;

std::size_t Counter::assign_stripe() {
  static std::atomic<std::size_t> next{0};
  tls_stripe_ = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return tls_stripe_;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<HistogramMetric>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::delta_snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    const std::uint64_t now = c->value();
    std::uint64_t& base = counter_baseline_[name];
    snap.counters.push_back({name, now - base});
    base = now;
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  counter_baseline_.clear();
}

std::size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsSnapshot::counters_text() const {
  std::string out;
  out.reserve(counters.size() * 48);
  char buf[64];
  for (const CounterValue& c : counters) {
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(c.value));
    out += c.name;
    out += buf;
  }
  return out;
}

std::optional<std::uint64_t> MetricsSnapshot::counter_value(
    std::string_view name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const CounterValue& c, std::string_view n) { return c.name < n; });
  if (it == counters.end() || it->name != name) return std::nullopt;
  return it->value;
}

}  // namespace softborg::obs
