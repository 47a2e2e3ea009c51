// Adaptive control plane: telemetry-driven portfolio scheduling (paper §4,
// ROADMAP item 3 — "close the portfolio loop").
//
// The paper allocates worker nodes like capital across equities: each
// top-level subtree has an observed return (paths closed per unit of work)
// and a risk (cost variance), and idle capacity goes to the best
// risk-adjusted return, with an optimism bonus for the unexplored. Until
// this PR that rule lived only inside one cooperative-exploration run; the
// telemetry layer (PR 5) measures exactly the returns it needs — new paths
// per directive, replay-recycling rate, solver-cache tier hits, frontier
// sizes — but nothing fed them back.
//
// This module closes the loop with two pieces:
//
//  * YieldLedger — the fleet's memory of where work has paid off. It is fed
//    ONLY at serial publication barriers (end of World::step_day, the
//    coop-run epilogue), so pipeline hot paths carry no new cost and ledger
//    state is a pure function of the deterministic stats structs —
//    byte-identical across ingest worker counts, and serializable through
//    the snapshot store (src/store) so a resumed run keeps its learned
//    allocation.
//
//  * AdaptivePlanner — the paper's allocation rule over ledger estimates:
//    score = (ewma_return + optimism/√(1+n)) / (1 + risk_aversion·relative
//    risk), shares by deterministic largest-remainder apportionment.
//
// Consumers (all gated by AdaptConfig::static_plan, the escape hatch that
// preserves the historical static behaviour bit for bit):
//   - World::step_day rebalances per-program guidance budgets, the daily
//     proof-attempt slice, and cooperative-exploration worker investment;
//   - run_cooperative_exploration seeds its portfolio equity estimates from
//     the ledger instead of starting cold every run, and writes observed
//     subtree costs back.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/fields.h"
#include "common/state_wire.h"
#include "hive/hive.h"
#include "obs/registry.h"

namespace softborg {

struct AdaptConfig {
  // Escape hatch: when true every consumer keeps the historical static
  // schedule (uniform per-program guidance, rotating proof slice, cold-start
  // coop portfolio). The ledger still observes — turning adaptation on
  // mid-deployment starts from warm estimates — but allocation never reads
  // it, so runs are byte-identical to the pre-refactor pipeline.
  bool static_plan = true;
  // EWMA weight of the newest per-day observation (return and risk alike).
  double ewma_alpha = 0.35;
  // Optimism bonus for under-observed targets: added as optimism/√(1+n), so
  // unexplored programs are speculatively funded and the bonus decays as
  // evidence accumulates (the paper's speculation/diversification term).
  double optimism = 2.0;
  // Weight of the relative risk term in the score denominator; 0 ranks by
  // raw optimistic return.
  double risk_aversion = 0.5;

  static constexpr auto fields() {
    using C = AdaptConfig;
    return std::tuple{field(&C::static_plan), field(&C::ewma_alpha),
                      field(&C::optimism), field(&C::risk_aversion)};
  }
};

// Per-target exponentially-weighted return/risk estimates plus the raw
// baselines needed to turn cumulative stats into per-day deltas. All state
// is deterministic and serializable; doubles round-trip as IEEE bit
// patterns (snapshot resume must reproduce allocation bit for bit).
class YieldLedger {
 public:
  explicit YieldLedger(AdaptConfig config = {}) : config_(config) {}

  const AdaptConfig& config() const { return config_; }

  struct Estimate {
    double ret = 0.0;        // EWMA of new paths closed per unit of work
    double risk = 0.0;       // EWMA absolute deviation of the return
    double opportunity = 0;  // latest open-frontier count (remaining upside)
    std::uint64_t observations = 0;
    bool proven = false;     // program currently holds a valid certificate

    static constexpr auto fields() {
      return std::tuple{field(&Estimate::ret), field(&Estimate::risk),
                        field(&Estimate::opportunity),
                        field(&Estimate::observations),
                        field(&Estimate::proven)};
    }
  };

  // --- per-program yield (fed once per day at the step_day barrier) --------
  // Charge `units` of invested work (directives granted, proof-attempt
  // slots, coop workers) to `program` for the current day; consumed by the
  // next observe_program call when it computes the day's return.
  void note_work(ProgramId program, std::uint64_t units);

  // Folds one day of a program's outcomes into its estimate: the return is
  // (total_paths - last seen) / max(work noted, 1). Opportunity and proof
  // status are replaced, not averaged. The first observation only baselines.
  void observe_program(ProgramId program, std::size_t total_paths,
                       std::size_t open_frontiers, bool has_valid_proof);

  // Null when the program was never observed.
  const Estimate* estimate(ProgramId program) const;

  // --- per-subtree (coop equity) estimates ---------------------------------
  // Key = first decision of the subtree, packed (site << 1) | taken.
  static std::uint64_t equity_key(std::uint32_t site, bool taken) {
    return (static_cast<std::uint64_t>(site) << 1) | (taken ? 1 : 0);
  }
  // EWMA-blend `mean_unit_cost` (weighted by the number of completed units)
  // into the stored per-subtree cost estimate.
  void observe_equity(ProgramId program, std::uint64_t key,
                      double mean_unit_cost, std::uint64_t units);
  struct EquityEstimate {
    double mean_cost = 0.0;
    double dev = 0.0;  // EWMA absolute deviation
    std::uint64_t units = 0;

    static constexpr auto fields() {
      using E = EquityEstimate;
      return std::tuple{field(&E::mean_cost), field(&E::dev),
                        field(&E::units)};
    }
  };
  const EquityEstimate* equity(ProgramId program, std::uint64_t key) const;

  // --- fleet-level recycling signals ---------------------------------------
  // Deltas of the hive's serial pipeline/proof stats (the same structs the
  // obs layer publishes from; baselines are kept internally). Updates the
  // fleet-wide replay- and solver-recycling EWMAs. These are ADVISORY
  // telemetry: the replay cache is deliberately ephemeral (a resumed hive
  // re-replays cold), so the post-resume hit/miss stream — and therefore
  // this EWMA — differs from an uninterrupted run's. The
  // allocation rule never reads them; only the program/equity estimates
  // (planning_state_equals) carry the bit-identical resume guarantee.
  void observe_hive(const IngestStats& ingest,
                    const Hive::ProofClosureStats& proof);
  // Same signals read from a registry delta snapshot instead — for
  // operators driving a ledger from exported telemetry. Counter names are
  // the obs layer's (hive.replay.cache_{hits,misses}_total, solver.*).
  void ingest_metrics_delta(const obs::MetricsSnapshot& delta);
  double replay_recycle_rate() const { return replay_recycle_rate_; }
  double solver_recycle_rate() const { return solver_recycle_rate_; }

  // --- persistence (src/store) --------------------------------------------
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);
  // Full-state byte equality (estimates AND advisory telemetry).
  bool state_equals(const YieldLedger& other) const;
  // Byte equality of the allocation inputs alone — per-program and
  // per-equity estimates. This is the resume differential's surface: every
  // AdaptivePlanner decision is a pure function of it, so equal planning
  // state means equal schedules, while the advisory recycle-rate EWMAs may
  // differ across a kill/resume without any behavioral divergence.
  bool planning_state_equals(const YieldLedger& other) const;

 private:
  struct ProgramState {
    Estimate est;
    std::uint64_t last_total_paths = 0;
    std::uint64_t work_pending = 0;
    bool baselined = false;

    static constexpr auto fields() {
      using P = ProgramState;
      return std::tuple{field(&P::est), field(&P::last_total_paths),
                        field(&P::work_pending), field(&P::baselined)};
    }
  };

  void ewma(double& acc, double obs) {
    acc += config_.ewma_alpha * (obs - acc);
  }
  void save_planning_state(Bytes& out) const;

  AdaptConfig config_;
  // Ordered maps: serialization iterates them directly and stays
  // deterministic regardless of insertion history.
  std::map<std::uint64_t, ProgramState> programs_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, EquityEstimate> equities_;
  double replay_recycle_rate_ = 0.0;
  double solver_recycle_rate_ = 0.0;
  std::uint64_t replay_hits_base_ = 0, replay_misses_base_ = 0;
  std::uint64_t solver_calls_base_ = 0, solver_recycled_base_ = 0;
};

// The allocation rule. Stateless apart from its config: every decision is a
// pure function of (budget, targets, ledger), so identical inputs give
// identical schedules on every host and after every resume.
class AdaptivePlanner {
 public:
  explicit AdaptivePlanner(AdaptConfig config = {}) : config_(config) {}

  // Risk-adjusted optimistic return of one target. Saturated targets (tree
  // complete AND proof standing) score 0; unexplored ones get the full
  // optimism bonus.
  double score(const YieldLedger& ledger, ProgramId program) const;

  // Splits `budget` indivisible units across `targets` proportionally to
  // score, by largest-remainder apportionment (deterministic: remainder
  // ties break on the lower index). All-zero scores degrade to the uniform
  // static split. Returns one share per target; shares sum to `budget`
  // unless every target scores 0 opportunity-free (then all-uniform still
  // sums to budget).
  std::vector<std::size_t> allocate(std::size_t budget,
                                    const std::vector<ProgramId>& targets,
                                    const YieldLedger& ledger) const;

  // Target indices ordered by descending score (ties: lower index first) —
  // the pick order for indivisible slots (the daily proof slice, coop
  // program picks).
  std::vector<std::size_t> rank(const std::vector<ProgramId>& targets,
                                const YieldLedger& ledger) const;

 private:
  AdaptConfig config_;
};

}  // namespace softborg
