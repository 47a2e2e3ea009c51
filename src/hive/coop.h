// Cooperative symbolic execution (paper §4).
//
// The hive parallelizes exploration of a program's execution tree across
// worker nodes that are "mostly end-user machines communicating over a
// potentially unreliable network". This module simulates that deployment
// end to end on SimNet, with three partitioning strategies to compare:
//
//   * kStatic    — the tree is split once, up front, into depth-k prefix
//     units assigned round-robin. Finding a good static partition is
//     undecidable (the tree's shape is unknown until explored), so skewed
//     subtrees straggle, and a dead worker stalls its whole share.
//   * kDynamic   — Cloud9-style [4]: one global queue of units; idle
//     workers pull; lost assignments are detected and re-queued.
//   * kPortfolio — dynamic, plus modern-portfolio-theory allocation [20]:
//     top-level subtrees are "equities" with an observed return (paths
//     closed per unit of work) and risk (cost variance); idle workers are
//     invested in the equity with the best risk-adjusted return, with an
//     optimism bonus for unexplored equities (speculation/diversification).
//
// Work costs are real: units carry the per-path symbolic-execution step
// counts measured by the SymbolicExecutor, so heterogeneity (loops, deep
// subtrees) is faithful. The network is lossy/latent; workers churn.
#pragma once

#include <cstdint>

#include "common/fields.h"
#include "minivm/corpus.h"
#include "net/simnet.h"

namespace softborg {

class YieldLedger;

enum class PartitionStrategy : std::uint8_t {
  kStatic = 0,
  kDynamic = 1,
  kPortfolio = 2,
};

const char* strategy_name(PartitionStrategy s);

struct CoopConfig {
  std::size_t num_workers = 4;
  PartitionStrategy strategy = PartitionStrategy::kDynamic;
  std::uint64_t steps_per_tick = 2'000;  // per-worker throughput
  double churn_prob = 0.0;               // P(worker dies) per busy tick
  std::uint64_t respawn_ticks = 25;
  std::uint64_t death_detect_ticks = 15;  // coordinator timeout
  std::size_t split_depth = 4;            // prefix depth defining work units
  NetConfig net;
  std::uint64_t seed = 1;
  std::uint64_t max_ticks = 2'000'000;
  // Optional adaptive ledger (hive/adapt.h). When set, kPortfolio seeds its
  // per-equity cost estimates from the ledger's cross-run priors instead of
  // starting cold, and the run writes the observed per-equity mean unit
  // costs back at the epilogue — the paper's collective recycling applied
  // to the allocator itself. Not owned; null keeps the historical cold
  // start. Deterministic: allocation becomes a pure function of
  // (entry, config, ledger state).
  YieldLedger* yield = nullptr;

  static constexpr auto fields() {
    using C = CoopConfig;
    return std::tuple{
        field(&C::num_workers), field(&C::strategy),
        field(&C::steps_per_tick), field(&C::churn_prob),
        field(&C::respawn_ticks), field(&C::death_detect_ticks),
        field(&C::split_depth), field(&C::net), field(&C::seed),
        field(&C::max_ticks),
        exempt(&C::yield, "a pointer World overwrites")};
  }
};

struct CoopResult {
  std::uint64_t ticks = 0;          // wall-clock ticks to completion
  std::size_t paths_explored = 0;
  bool complete = false;
  std::uint64_t messages = 0;
  std::size_t worker_deaths = 0;
  std::uint64_t wasted_steps = 0;   // work lost to churn and redone
  std::uint64_t useful_steps = 0;
  std::uint64_t idle_ticks = 0;     // worker-ticks spent waiting for work
  // Which strategy produced this result — carried so downstream consumers
  // (DayMetrics, hive_status_report) can attribute outcomes per strategy.
  PartitionStrategy strategy = PartitionStrategy::kDynamic;
};

// Explores `entry`'s full execution tree cooperatively and reports how the
// chosen strategy performed. Deterministic in (entry, config).
CoopResult run_cooperative_exploration(const CorpusEntry& entry,
                                       const CoopConfig& config);

}  // namespace softborg
