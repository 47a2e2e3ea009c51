#include "hive/report.h"

#include <cstdarg>
#include <cstdio>

#include "hive/coop.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace softborg {

namespace {
std::string line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf) + "\n";
}
}  // namespace

std::string repair_lab_report(const Hive& hive) {
  std::string out;
  if (hive.repair_lab().empty()) {
    return "repair lab: empty\n";
  }
  out += line("repair lab: %zu candidate(s) awaiting a human:",
              hive.repair_lab().size());
  for (const auto& entry : hive.repair_lab()) {
    out += line("  [score %.2f] bug %llu: %s — %s", entry.candidate.score(),
                static_cast<unsigned long long>(entry.candidate.bug.value),
                entry.candidate.rationale.c_str(),
                entry.why_not_auto.c_str());
  }
  return out;
}

std::string hive_status_report(Hive& hive) {
  const HiveStats& s = hive.stats();
  std::string out;
  out += "=== hive status ===\n";
  out += line(
      "ingestion: %llu traces (%llu dup, %llu stale, %llu malformed, %llu "
      "unreplayable, %llu gate-held), %llu paths merged (%llu new)",
      static_cast<unsigned long long>(s.traces_ingested),
      static_cast<unsigned long long>(s.duplicates_dropped),
      static_cast<unsigned long long>(s.stale_dropped),
      static_cast<unsigned long long>(s.decode_failures),
      static_cast<unsigned long long>(s.replay_failures),
      static_cast<unsigned long long>(s.gated_traces),
      static_cast<unsigned long long>(s.paths_merged),
      static_cast<unsigned long long>(s.new_paths));
  const IngestStats& ing = hive.ingest_stats();
  out += line(
      "pipeline: %llu batches (%llu traces), replay cache %llu hit / %llu "
      "miss (%.0f%%)",
      static_cast<unsigned long long>(ing.batches),
      static_cast<unsigned long long>(ing.batch_traces),
      static_cast<unsigned long long>(ing.replay_cache_hits),
      static_cast<unsigned long long>(ing.replay_cache_misses),
      ing.cache_hit_rate() * 100.0);
  out += line(
      "fixing: %llu bugs found, %llu fixes approved, %llu repair-lab "
      "entries; telemetry: %llu patched traces, %llu recurrences, %llu "
      "bugs reopened",
      static_cast<unsigned long long>(s.bugs_found),
      static_cast<unsigned long long>(s.fixes_approved),
      static_cast<unsigned long long>(s.repair_lab_entries),
      static_cast<unsigned long long>(s.patched_traces_skipped),
      static_cast<unsigned long long>(s.fix_recurrences),
      static_cast<unsigned long long>(s.bugs_reopened));
  const Hive::ProofClosureStats& ps = hive.proof_stats();
  out += line(
      "proof closure: %llu attempts (%llu publishable, %llu refuted), "
      "solver calls %llu, recycled %llu (exact %llu, subsumed %llu, "
      "models %llu)",
      static_cast<unsigned long long>(ps.attempts),
      static_cast<unsigned long long>(ps.publishable),
      static_cast<unsigned long long>(ps.refuted),
      static_cast<unsigned long long>(ps.solver_calls),
      static_cast<unsigned long long>(ps.recycled()),
      static_cast<unsigned long long>(ps.solver_cache_hits),
      static_cast<unsigned long long>(ps.solver_unsat_subsumed),
      static_cast<unsigned long long>(ps.solver_models_reused));
  bool any_coop = false;
  for (std::size_t strat = 0; strat < hive.coop_stats().size(); ++strat) {
    const Hive::CoopStrategyStats& cs = hive.coop_stats()[strat];
    if (cs.runs == 0) continue;
    any_coop = true;
    const std::uint64_t total_steps = cs.useful_steps + cs.wasted_steps;
    out += line(
        "coop[%s]: %llu runs (%llu complete), %llu ticks, %llu useful / "
        "%llu wasted steps (%.0f%% waste), %llu idle ticks, %llu deaths",
        strategy_name(static_cast<PartitionStrategy>(strat)),
        static_cast<unsigned long long>(cs.runs),
        static_cast<unsigned long long>(cs.completed),
        static_cast<unsigned long long>(cs.ticks),
        static_cast<unsigned long long>(cs.useful_steps),
        static_cast<unsigned long long>(cs.wasted_steps),
        total_steps == 0 ? 0.0
                         : 100.0 * static_cast<double>(cs.wasted_steps) /
                               static_cast<double>(total_steps),
        static_cast<unsigned long long>(cs.idle_ticks),
        static_cast<unsigned long long>(cs.worker_deaths));
  }
  if (!any_coop) out += "coop: no cooperative runs\n";

  // Distributed-transport backpressure: present only when a TraceRouter in
  // this process has published its dist.* series (the line never appears —
  // and pinned report outputs never change — in a purely in-process fleet).
  {
    const obs::MetricsSnapshot ms = obs::MetricsRegistry::global().snapshot();
    const auto cv = [&](const char* name) {
      return ms.counter_value(name).value_or(0);
    };
    const std::uint64_t received = cv("dist.received_total");
    if (received > 0) {
      const std::uint64_t shed = cv("dist.shed_total");
      std::int64_t queue_peak = 0;
      for (const auto& g : ms.gauges) {
        if (g.name == "dist.queue_depth_peak") queue_peak = g.value;
      }
      out += line(
          "distributed: %llu received, %llu forwarded, %llu shed (%.2f%% "
          "shed rate), %llu backpressure stalls (%.3fs stalled), queue "
          "peak %lld",
          static_cast<unsigned long long>(received),
          static_cast<unsigned long long>(cv("dist.forwarded_total")),
          static_cast<unsigned long long>(shed),
          100.0 * static_cast<double>(shed) / static_cast<double>(received),
          static_cast<unsigned long long>(cv("dist.backpressure_stalls_total")),
          static_cast<double>(cv("dist.stall_us_total")) / 1e6,
          static_cast<long long>(queue_peak));
      // Per-shard credit occupancy: one line per shard the router has
      // published a credit_window gauge for (contiguous from shard 0).
      for (std::size_t i = 0;; ++i) {
        const std::string prefix = "dist.shard" + std::to_string(i);
        std::int64_t window = -1;
        std::int64_t in_flight = 0;
        for (const auto& g : ms.gauges) {
          if (g.name == prefix + ".credit_window") window = g.value;
          if (g.name == prefix + ".credit_in_flight") in_flight = g.value;
        }
        if (window < 0) break;
        out += line(
            "  shard %zu: credit %lld/%lld in flight (%.0f%% occupied), "
            "%llu forwarded, %.3fs stalled",
            i, static_cast<long long>(in_flight),
            static_cast<long long>(window),
            window == 0 ? 0.0
                        : 100.0 * static_cast<double>(in_flight) /
                              static_cast<double>(window),
            static_cast<unsigned long long>(
                cv((prefix + ".forwarded_total").c_str())),
            static_cast<double>(cv((prefix + ".stall_us_total").c_str())) /
                1e6);
      }
    }
  }

  out += "bug ledger:\n";
  if (hive.bug_tracker().all().empty()) {
    out += "  (no bugs recorded)\n";
  }
  for (const auto& bug : hive.bug_tracker().all()) {
    out += line("  [%s] #%llu %s", bug.fixed ? "FIXED" : "OPEN ",
                static_cast<unsigned long long>(bug.id.value),
                bug.describe().c_str());
  }

  out += "proof ledger:\n";
  if (hive.published_proofs().empty()) {
    out += "  (no certificates published)\n";
  }
  for (const auto& published : hive.published_proofs()) {
    out += line("  [%s] #%llu %s",
                published.revoked ? "REVOKED" : "VALID  ",
                static_cast<unsigned long long>(
                    published.certificate.id.value),
                published.certificate.describe().c_str());
  }

  out += repair_lab_report(hive);
  out += line("telemetry: %zu metrics registered (spans %s)",
              obs::MetricsRegistry::global().num_metrics(),
              obs::spans_enabled() ? "on" : "off");
  return out;
}

std::string hive_status_report(Hive& hive, const NetStats& net) {
  std::string out = hive_status_report(hive);
  out += line(
      "network: %llu sent, %llu delivered; lost: %llu blocked at send, "
      "%llu dropped in flight, %llu dropped at random; %llu duplicated, "
      "%llu bytes sent",
      static_cast<unsigned long long>(net.sent),
      static_cast<unsigned long long>(net.delivered),
      static_cast<unsigned long long>(net.blocked_at_send),
      static_cast<unsigned long long>(net.dropped_in_flight),
      static_cast<unsigned long long>(net.dropped),
      static_cast<unsigned long long>(net.duplicated),
      static_cast<unsigned long long>(net.bytes_sent));
  return out;
}

}  // namespace softborg
