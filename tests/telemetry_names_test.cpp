// Pins the published counter names and what each one counts. Operators and
// YieldLedger::ingest_metrics_delta read counters by name, and
// hive_status_report reads the dist.* ones, so a renamed or remapped
// counter is a silent break. One test in its own binary: the registry is
// process-wide, and the name set below is exactly what these two legs
// register in a fresh process.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/softborg.h"
#include "dist/channel.h"
#include "dist/router.h"
#include "dist/worker.h"
#include "minivm/interp.h"
#include "obs/registry.h"
#include "trace/codec.h"

namespace softborg {
namespace {

using Expected = std::vector<std::pair<std::string, std::uint64_t>>;

void expect_deltas(const obs::MetricsSnapshot& delta, const Expected& want) {
  for (const auto& [name, value] : want) {
    EXPECT_EQ(delta.counter_value(name), std::optional<std::uint64_t>(value))
        << name;
  }
}

Expected hive_counters(const HiveStats& s, const IngestStats& i) {
  return {
      {"hive.traces_ingested_total", s.traces_ingested},
      {"hive.duplicates_dropped_total", s.duplicates_dropped},
      {"hive.stale_dropped_total", s.stale_dropped},
      {"hive.decode_failures_total", s.decode_failures},
      {"hive.replay_failures_total", s.replay_failures},
      {"hive.patched_traces_skipped_total", s.patched_traces_skipped},
      {"hive.gated_traces_total", s.gated_traces},
      {"hive.tree.paths_merged_total", s.paths_merged},
      {"hive.tree.new_paths_total", s.new_paths},
      {"hive.bugs_found_total", s.bugs_found},
      {"hive.fixes_approved_total", s.fixes_approved},
      {"hive.repair_lab_entries_total", s.repair_lab_entries},
      {"hive.proofs_revoked_total", s.proofs_revoked},
      {"hive.fix_recurrences_total", s.fix_recurrences},
      {"hive.bugs_reopened_total", s.bugs_reopened},
      {"hive.replay.cache_hits_total", i.replay_cache_hits},
      {"hive.replay.cache_misses_total", i.replay_cache_misses},
      {"hive.ingest.fan_out_batches_total", i.fan_out_batches},
  };
}

std::vector<Bytes> make_workload(const std::vector<CorpusEntry>& corpus,
                                 std::size_t n) {
  Rng rng(3);
  std::vector<Bytes> wires;
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
    ExecConfig cfg;
    for (const auto& d : entry.domains) {
      cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    cfg.seed = i;
    auto result = execute(entry.program, cfg);
    result.trace.id = TraceId(i + 1);
    wires.push_back(encode_trace(result.trace));
  }
  return wires;
}

TEST(TelemetryNames, PublishedCountersAreNamedAndCountTheirStats) {
  auto& registry = obs::MetricsRegistry::global();

  // Leg 1: a World with proofs and cooperative exploration on.
  registry.rebaseline();
  WorldConfig config;
  config.pods_per_program = 4;
  config.days = 3;
  config.mean_runs_per_day = 3.0;
  config.proof_programs_per_day = 2;
  config.coop_programs_per_day = 1;
  config.coop.num_workers = 2;
  config.seed = 9;
  World world(standard_corpus(), config);
  world.run();
  {
    const obs::MetricsSnapshot delta = registry.delta_snapshot();
    const Hive& hive = world.hive();
    expect_deltas(delta, hive_counters(hive.stats(), hive.ingest_stats()));
    const Hive::ProofClosureStats& p = hive.proof_stats();
    ASSERT_GT(p.attempts, 0u);
    expect_deltas(delta, {
                             {"proof.attempts_total", p.attempts},
                             {"proof.publishable_total", p.publishable},
                             {"proof.refuted_total", p.refuted},
                             {"solver.calls_total", p.solver_calls},
                         });
    const Hive::CoopStrategyStats& c =
        hive.coop_stats()[static_cast<std::size_t>(PartitionStrategy::kDynamic)];
    ASSERT_EQ(c.runs, config.days);
    expect_deltas(delta, {
                             {"coop.dynamic.runs_total", c.runs},
                             {"coop.dynamic.completed_total", c.completed},
                             {"coop.dynamic.ticks_total", c.ticks},
                             {"coop.dynamic.useful_steps_total", c.useful_steps},
                             {"coop.dynamic.wasted_steps_total", c.wasted_steps},
                             {"coop.dynamic.idle_ticks_total", c.idle_ticks},
                             {"coop.dynamic.worker_deaths_total",
                              c.worker_deaths},
                         });
  }

  // Leg 2: the in-process router/worker fleet over SimNet channels.
  registry.rebaseline();
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200);
  NetConfig net_config;
  net_config.min_latency_ticks = 1;
  net_config.max_latency_ticks = 1;
  SimNet net(net_config);
  constexpr std::size_t kShards = 3;
  dist::TraceRouter router(kShards);
  std::vector<std::unique_ptr<dist::ShardWorker>> workers;
  std::vector<std::unique_ptr<dist::SimNetChannel>> channels;
  for (std::size_t i = 0; i < kShards; ++i) {
    auto [router_side, worker_side] = dist::make_simnet_channel_pair(net);
    router.connect_shard(i, std::move(router_side));
    channels.push_back(std::move(worker_side));
    workers.push_back(
        std::make_unique<dist::ShardWorker>(i, &corpus, dist::WorkerConfig{}));
    workers.back()->send_hello(*channels.back());
  }
  const auto round = [&] {
    net.tick();
    router.pump();
    for (std::size_t i = 0; i < kShards; ++i) workers[i]->pump(*channels[i]);
  };
  for (std::size_t sent = 0; sent < wires.size(); sent += 20) {
    for (std::size_t i = sent; i < std::min(sent + 20, wires.size()); ++i) {
      router.route_wire(wires[i]);
    }
    round();
  }
  for (int i = 0; i < 1'000 && !router.quiescent(); ++i) round();
  ASSERT_TRUE(router.quiescent());
  {
    const obs::MetricsSnapshot delta = registry.delta_snapshot();
    const dist::RouterStats& r = router.stats();
    // A credit stall would register a per-shard stall counter by timing.
    ASSERT_EQ(r.backpressure_stalls, 0u);
    expect_deltas(delta, {
                             {"dist.received_total", r.received},
                             {"dist.forwarded_total", r.forwarded},
                             {"dist.shed_total", r.shed},
                             {"dist.backpressure_stalls_total",
                              r.backpressure_stalls},
                             {"dist.routing_failures_total", r.routing_failures},
                             {"dist.unroutable_total", r.unroutable},
                             {"dist.credits_granted_total", r.credits_granted},
                             {"dist.stall_us_total", 0},
                             // The ring sends this workload to shards 0 and 2.
                             {"dist.shard0.forwarded_total",
                              router.shard_forwarded(0)},
                             {"dist.shard2.forwarded_total",
                              router.shard_forwarded(2)},
                         });
    const NetStats& n = net.stats();
    expect_deltas(delta, {
                             {"net.sent_total", n.sent},
                             {"net.delivered_total", n.delivered},
                             {"net.dropped_total", n.dropped},
                             {"net.duplicated_total", n.duplicated},
                             {"net.blocked_at_send_total", n.blocked_at_send},
                             {"net.dropped_in_flight_total",
                              n.dropped_in_flight},
                             {"net.bytes_sent_total", n.bytes_sent},
                             {"net.payloads_copied_total", n.payloads_copied},
                         });
    HiveStats hive_sum;
    IngestStats ingest_sum;
    std::uint64_t ingested = 0, shed = 0, batches = 0;
    for (const auto& w : workers) {
      const dist::WorkerStatsMsg m = w->closing_stats();
      ingested += m.ingested;
      shed += m.shed;
      batches += m.batches;
      for_each_field<HiveStats>([&](const auto& entry) {
        hive_sum.*entry.member += m.hive.*entry.member;
      });
      ingest_sum.replay_cache_hits += w->hive().ingest_stats().replay_cache_hits;
      ingest_sum.replay_cache_misses +=
          w->hive().ingest_stats().replay_cache_misses;
      ingest_sum.fan_out_batches += w->hive().ingest_stats().fan_out_batches;
    }
    ASSERT_EQ(ingested, wires.size());
    expect_deltas(delta, hive_counters(hive_sum, ingest_sum));
    expect_deltas(delta, {
                             {"dist.worker.ingested_total", ingested},
                             {"dist.worker.shed_total", shed},
                             {"dist.worker.batches_total", batches},
                         });
  }

  // Every counter the two legs registered under the pinned prefixes.
  std::vector<std::string> names;
  for (const auto& c : registry.snapshot().counters) {
    for (const char* prefix :
         {"hive.", "proof.", "solver.", "coop.", "net.", "dist."}) {
      if (c.name.rfind(prefix, 0) == 0) names.push_back(c.name);
    }
  }
  const std::vector<std::string> want = {
      "coop.dynamic.completed_total",
      "coop.dynamic.idle_ticks_total",
      "coop.dynamic.runs_total",
      "coop.dynamic.ticks_total",
      "coop.dynamic.useful_steps_total",
      "coop.dynamic.wasted_steps_total",
      "coop.dynamic.worker_deaths_total",
      "dist.backpressure_stalls_total",
      "dist.credits_granted_total",
      "dist.forwarded_total",
      "dist.received_total",
      "dist.routing_failures_total",
      "dist.shard0.forwarded_total",
      "dist.shard2.forwarded_total",
      "dist.shed_total",
      "dist.stall_us_total",
      "dist.unroutable_total",
      "dist.worker.batches_total",
      "dist.worker.ingested_total",
      "dist.worker.shed_total",
      "hive.bugs_found_total",
      "hive.bugs_reopened_total",
      "hive.decode_failures_total",
      "hive.duplicates_dropped_total",
      "hive.fix_recurrences_total",
      "hive.fixes_approved_total",
      "hive.gated_traces_total",
      "hive.ingest.fan_out_batches_total",
      "hive.patched_traces_skipped_total",
      "hive.proofs_revoked_total",
      "hive.repair_lab_entries_total",
      "hive.replay.cache_hits_total",
      "hive.replay.cache_misses_total",
      "hive.replay_failures_total",
      "hive.stale_dropped_total",
      "hive.traces_ingested_total",
      "hive.tree.new_paths_total",
      "hive.tree.paths_merged_total",
      "net.blocked_at_send_total",
      "net.bytes_sent_total",
      "net.delivered_total",
      "net.dropped_in_flight_total",
      "net.dropped_total",
      "net.duplicated_total",
      "net.payloads_copied_total",
      "net.sent_total",
      "proof.attempts_total",
      "proof.publishable_total",
      "proof.refuted_total",
      "solver.calls_total",
  };
  EXPECT_EQ(names, want);
}

}  // namespace
}  // namespace softborg
