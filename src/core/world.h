// The SoftBorg world: a simulated deployment of the whole platform
// (paper Fig. 1), substituting for the multi-user run corpus the paper
// assumes (see DESIGN.md, substitutions).
//
// A World owns a program corpus, a heterogeneous fleet of pods (each pod =
// one simulated user of one program, with its own input preferences and
// usage rate), one hive, and the unreliable network between them. Virtual
// time advances in days; each day:
//   1. pods deliver pending downstream messages (fixes, guidance),
//   2. every pod performs its user's executions and ships the by-products
//      upstream over the lossy network,
//   3. the hive ingests, detects bugs, synthesizes+validates fixes, and
//      broadcasts approved fixes back,
//   4. (optionally) the hive plans guidance directives for a sample of pods,
//   5. per-day metrics are recorded (the raw series behind experiments
//      E1/E3/E5).
//
// Everything is seeded: a World run is exactly reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hive/adapt.h"
#include "hive/coop.h"
#include "hive/hive.h"
#include "minivm/corpus.h"
#include "net/simnet.h"
#include "obs/registry.h"
#include "pod/pod.h"

namespace softborg {

struct WorldConfig {
  std::size_t pods_per_program = 50;
  std::uint64_t days = 30;
  double mean_runs_per_day = 6.0;  // per pod; individual rates vary around it
  NetConfig net;
  PodConfig pod_config;
  HiveConfig hive;
  bool distribute_fixes = true;
  // Staged rollout: fixes first ship to a canary cohort of the program's
  // pods; full rollout follows after `canary_days` unless the hive's
  // fix-effectiveness telemetry reopened the bug in the meantime.
  double canary_fraction = 1.0;  // 1.0 = ship to everyone immediately
  std::uint64_t canary_days = 2;
  std::size_t guidance_per_program_per_day = 0;
  // Proof gap closure: each day the hive attempts cumulative proofs for this
  // many programs (a rotating corpus slice, so the whole fleet is swept every
  // ceil(corpus / n) days); 0 disables. Attempts recycle solver results
  // when HiveConfig::solver_cache is on.
  std::size_t proof_programs_per_day = 0;
  Property proof_property = Property::kNeverCrashes;
  // Adaptive control plane (hive/adapt.h). With the default
  // static_plan=true every schedule below is the historical static one and
  // runs are byte-identical to the pre-adaptive pipeline; the yield ledger
  // still observes, so flipping adaptation on later starts from warm
  // estimates. With static_plan=false, step_day() rebalances the guidance
  // pool (guidance_per_program_per_day × corpus as one budget), the daily
  // proof slice (highest-scoring programs instead of rotation), and coop
  // worker investment from measured per-program yield.
  AdaptConfig adapt;
  // Cooperative-exploration investment: programs explored cooperatively per
  // day (0 disables). Statically a rotating corpus slice with
  // coop.num_workers each; adaptively the top-ranked programs with worker
  // counts allocated by yield.
  std::size_t coop_programs_per_day = 0;
  CoopConfig coop;
  std::size_t ticks_per_day = 12;
  std::uint64_t seed = 1;
  // Durable corpus store (src/store). When snapshot_dir is non-empty and
  // snapshot_every_n_days > 0, step_day() writes a full-state snapshot
  // generation at the end of every n-th day; resume_from_snapshot() restores
  // one, and the restored run continues bit-identically to a run that was
  // never interrupted (tests/resume_test.cpp pins this).
  std::string snapshot_dir;
  std::size_t snapshot_every_n_days = 0;  // 0 = explicit save_snapshot only
  // Warm start: encoded trace wires (a previous run's persisted
  // crashing/regression set, see Hive::regression_inputs) ingested at the
  // start of every day, before the day's fresh traffic — fuzzer-style
  // replay of yesterday's crashers so known bugs resurface immediately in a
  // fresh fleet.
  std::vector<Bytes> warm_start_regressions;
  // Fleet telemetry: when true, step_day() captures a per-day delta snapshot
  // of the global metrics registry (counter increments since the previous
  // day) alongside DayMetrics; read the series back with metrics_history().
  // Off by default — the registry is process-wide, so two concurrently
  // stepping worlds would interleave their deltas.
  bool record_metrics = false;

  // The fingerprint (World::config_fingerprint) hashes every encoded field.
  static constexpr auto fields() {
    using C = WorldConfig;
    return std::tuple{
        field(&C::pods_per_program),
        exempt(&C::days, "a resumed run may extend the horizon"),
        field(&C::mean_runs_per_day), field(&C::net), field(&C::pod_config),
        field(&C::hive), field(&C::distribute_fixes),
        field(&C::canary_fraction), field(&C::canary_days),
        field(&C::guidance_per_program_per_day),
        field(&C::proof_programs_per_day), field(&C::proof_property),
        field(&C::adapt), field(&C::coop_programs_per_day), field(&C::coop),
        field(&C::ticks_per_day), field(&C::seed),
        exempt(&C::snapshot_dir, "where state is stored, not what it is"),
        exempt(&C::snapshot_every_n_days,
               "when state is stored, not what it is"),
        exempt(&C::warm_start_regressions,
               "a warm-start input a resumed run may carry or drop"),
        exempt(&C::record_metrics,
               "reads the registry; the run does not depend on it")};
  }
};

struct DayMetrics {
  std::uint64_t day = 0;
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;          // as experienced by users that day
  double failure_rate = 0.0;
  std::uint64_t fix_interventions = 0; // crashes/deadlocks averted by fixes
  std::size_t bugs_found_total = 0;
  std::size_t bugs_fixed_total = 0;
  std::size_t fixes_distributed_total = 0;
  std::size_t total_paths = 0;         // union coverage across programs
  // Unexplored directions remaining across all trees — the fleet's distance
  // from "every program proven". An O(1) read per tree (incremental
  // aggregate), so it is affordable as a daily metric.
  std::size_t open_frontiers = 0;
  std::uint64_t traces_delivered_total = 0;
  // Network delivery loss, cumulative NetStats totals: messages refused at
  // send() by a standing partition, eaten mid-flight by a partition that
  // formed after send, and dropped by random loss. Next to
  // traces_delivered_total these show how much fleet knowledge the
  // unreliable network costs (paper §4's "potentially unreliable network").
  std::uint64_t net_blocked_at_send_total = 0;
  std::uint64_t net_dropped_in_flight_total = 0;
  std::uint64_t net_dropped_total = 0;
  // Proof gap closure (when WorldConfig::proof_programs_per_day > 0):
  // cumulative totals from the hive's closure telemetry. The solver counters
  // split recycled results (cache hits + subsumptions + reused models) from
  // fresh solver work, so the day series shows recycling compound as the
  // fleet's knowledge accumulates.
  std::size_t proofs_valid_total = 0;
  std::uint64_t proof_solver_calls_total = 0;
  std::uint64_t proof_solver_recycled_total = 0;
  // Cooperative exploration (when WorldConfig::coop_programs_per_day > 0):
  // the day's run outcomes, including the efficiency signals that were
  // previously invisible to the obs layer (idle worker-ticks and work lost
  // to churn), attributed per partition strategy.
  std::uint64_t coop_runs = 0;
  std::uint64_t coop_ticks = 0;
  std::uint64_t coop_useful_steps = 0;
  std::uint64_t coop_wasted_steps = 0;
  std::uint64_t coop_idle_ticks = 0;
  std::array<std::uint64_t, 3> coop_runs_by_strategy{};  // by PartitionStrategy

  bool operator==(const DayMetrics&) const = default;

  static constexpr auto fields() {
    using M = DayMetrics;
    return std::tuple{
        field(&M::day), field(&M::runs), field(&M::failures),
        field(&M::failure_rate), field(&M::fix_interventions),
        field(&M::bugs_found_total), field(&M::bugs_fixed_total),
        field(&M::fixes_distributed_total), field(&M::total_paths),
        field(&M::open_frontiers), field(&M::traces_delivered_total),
        field(&M::net_blocked_at_send_total),
        field(&M::net_dropped_in_flight_total), field(&M::net_dropped_total),
        field(&M::proofs_valid_total), field(&M::proof_solver_calls_total),
        field(&M::proof_solver_recycled_total), field(&M::coop_runs),
        field(&M::coop_ticks), field(&M::coop_useful_steps),
        field(&M::coop_wasted_steps), field(&M::coop_idle_ticks),
        field(&M::coop_runs_by_strategy)};
  }
};

class World {
 public:
  World(std::vector<CorpusEntry> corpus, WorldConfig config);

  void step_day();
  void run();  // all configured days

  std::uint64_t day() const { return day_; }
  Hive& hive() { return *hive_; }
  const Hive& hive() const { return *hive_; }
  const std::vector<DayMetrics>& history() const { return history_; }
  // One registry delta snapshot per stepped day; empty unless
  // WorldConfig::record_metrics is set.
  const std::vector<obs::MetricsSnapshot>& metrics_history() const {
    return metrics_history_;
  }
  const std::vector<CorpusEntry>& corpus() const { return corpus_; }
  // The adaptive control plane's memory (read-only; step_day feeds it).
  const YieldLedger& yield_ledger() const { return ledger_; }
  std::size_t num_pods() const { return pods_.size(); }
  Pod& pod(std::size_t i) { return *pods_[i].pod; }
  const NetStats& net_stats() const { return net_.stats(); }
  std::size_t pending_rollouts() const { return pending_rollouts_.size(); }
  std::size_t rollouts_cancelled() const { return rollouts_cancelled_; }

  // --- durable store ----------------------------------------------------------
  // Writes a snapshot generation (seq = current day) of the entire mutable
  // world state — hive ledgers, trees, solver cache, every pod, the network,
  // day metrics, all rng streams — under `dir`, crash-safely (src/store).
  // False on I/O failure; the previous generation stays loadable.
  bool save_snapshot(const std::string& dir, std::string* err = nullptr) const;

  // Restores the newest good generation under `dir` into this
  // freshly-constructed World. Requires the same corpus and config as the
  // saving run (a config/corpus fingerprint in the snapshot is checked).
  // On false the World is in an unspecified state: discard it and construct
  // a fresh one (clean cold start). On success, continuing with step_day()
  // reproduces the uninterrupted run bit for bit.
  bool resume_from_snapshot(const std::string& dir, std::string* err = nullptr);

 private:
  struct PodSlot {
    std::unique_ptr<Pod> pod;
    Endpoint endpoint = 0;
    std::size_t corpus_index = 0;
  };

  UserProfile random_profile(const CorpusEntry& entry);
  // Hash of everything that determines a run: every WorldConfig field its
  // list does not exempt, plus the corpus program ids. Stored in every
  // snapshot's "meta" part; resume refuses a snapshot whose fingerprint
  // differs (a snapshot from a differently-configured run would silently
  // diverge, not resume).
  std::uint64_t config_fingerprint() const;
  void deliver_downstream();
  void broadcast_fixes(const std::vector<FixCandidate>& fixes);
  void send_fix_to(const FixCandidate& candidate, const PodSlot& slot);
  void advance_rollouts();
  void send_guidance();
  void attempt_daily_proofs();
  void run_daily_coop(DayMetrics& metrics);

  std::vector<CorpusEntry> corpus_;
  WorldConfig config_;
  Rng rng_;
  YieldLedger ledger_;
  AdaptivePlanner adapt_planner_;
  SimNet net_;
  Endpoint hive_endpoint_ = 0;
  std::unique_ptr<Hive> hive_;
  std::vector<PodSlot> pods_;
  std::uint64_t day_ = 0;
  std::size_t fixes_distributed_ = 0;
  struct PendingRollout {
    FixCandidate candidate;
    std::uint64_t full_rollout_day = 0;
  };
  std::vector<PendingRollout> pending_rollouts_;
  std::size_t rollouts_cancelled_ = 0;
  std::vector<DayMetrics> history_;
  std::vector<obs::MetricsSnapshot> metrics_history_;
};

// Reads only the persisted crashing/regression set ("regress" part) from the
// newest good snapshot under `dir` — the warm-start payload for a fresh
// World (WorldConfig::warm_start_regressions). Empty when the directory has
// no valid snapshot.
std::vector<Bytes> load_regression_inputs(const std::string& dir,
                                          std::string* err = nullptr);

}  // namespace softborg
