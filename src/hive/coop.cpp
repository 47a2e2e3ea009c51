#include "hive/coop.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "hive/adapt.h"
#include "pod/protocol.h"
#include "sym/executor.h"
#include "tree/exec_tree.h"

namespace softborg {

const char* strategy_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kStatic: return "static";
    case PartitionStrategy::kDynamic: return "dynamic";
    case PartitionStrategy::kPortfolio: return "portfolio";
  }
  return "?";
}

namespace {

// One unit of work: a prefix-subtree's path costs (symbolic steps each).
struct WorkUnit {
  std::size_t id = 0;
  std::size_t equity = 0;  // top-level subtree this unit belongs to
  std::vector<std::uint64_t> path_costs;
  std::uint64_t total_cost = 0;
};

struct UnitAssignment {
  std::size_t unit = 0;
  std::uint64_t assigned_tick = 0;
  std::size_t worker = 0;
};

struct Worker {
  Endpoint endpoint = 0;
  bool alive = true;
  std::uint64_t respawn_at = 0;
  std::optional<std::size_t> unit;     // current work
  std::size_t path_index = 0;
  std::uint64_t remaining_in_path = 0;
  std::uint64_t steps_done_in_unit = 0;
  std::uint64_t last_request_tick = 0;
  std::size_t paths_done_in_unit = 0;
};

// Per-equity statistics for the portfolio allocator.
struct Equity {
  StatAccumulator unit_cost;    // observed per-unit total costs
  std::size_t units_open = 0;   // unfinished units in this equity
  std::size_t exposure = 0;     // in-flight assignments ("capital invested")
  // Cross-run prior from the yield ledger (negative mean = no prior).
  double prior_mean = -1.0;
  double prior_dev = 0.0;
};

class Coordinator {
 public:
  Coordinator(std::vector<WorkUnit> units, PartitionStrategy strategy,
              std::size_t num_workers, std::size_t num_equities)
      : units_(std::move(units)),
        strategy_(strategy),
        equities_(num_equities) {
    for (const auto& u : units_) equities_[u.equity].units_open++;
    switch (strategy_) {
      case PartitionStrategy::kStatic: {
        // Static = split the execution tree spatially, up front: each
        // worker owns one contiguous block of prefix-ordered units (one
        // contiguous region of the tree). This is the partition one would
        // choose without knowing subtree costs — the paper's point that a
        // good static split is undecidable before exploration.
        static_share_.resize(num_workers);
        const std::size_t per_worker =
            (units_.size() + num_workers - 1) /
            std::max<std::size_t>(num_workers, 1);
        for (std::size_t i = 0; i < units_.size(); ++i) {
          static_share_[std::min(i / std::max<std::size_t>(per_worker, 1),
                                 num_workers - 1)]
              .push_back(i);
        }
        break;
      }
      case PartitionStrategy::kDynamic:
      case PartitionStrategy::kPortfolio:
        for (std::size_t i = 0; i < units_.size(); ++i) queue_.push_back(i);
        break;
    }
    done_.assign(units_.size(), false);
    in_flight_.assign(units_.size(), false);
  }

  // Picks a unit for `worker`, or nullopt if none available to it now.
  std::optional<std::size_t> assign(std::size_t worker) {
    switch (strategy_) {
      case PartitionStrategy::kStatic: {
        auto& share = static_share_[worker];
        while (!share.empty()) {
          const std::size_t u = share.front();
          if (done_[u] || in_flight_[u]) {
            share.pop_front();
            continue;
          }
          share.pop_front();
          in_flight_[u] = true;
          return u;
        }
        return std::nullopt;
      }
      case PartitionStrategy::kDynamic: {
        while (!queue_.empty()) {
          const std::size_t u = queue_.front();
          queue_.pop_front();
          if (done_[u] || in_flight_[u]) continue;
          in_flight_[u] = true;
          return u;
        }
        return std::nullopt;
      }
      case PartitionStrategy::kPortfolio:
        return assign_portfolio();
    }
    return std::nullopt;
  }

  std::optional<std::size_t> assign_portfolio() {
    // Modern-portfolio-theory allocation (paper §4): treat each top-level
    // subtree as an equity and invest the idle worker where the expected
    // *remaining* work per unit of already-invested capital is largest.
    //  * return estimate: units_open x observed mean unit cost (optimistic
    //    prior for unobserved equities — speculation);
    //  * risk: high cost variance inflates the estimate (a risky equity
    //    may hide much more work than its mean suggests), which is
    //    exactly why it deserves early diversified investment;
    //  * diversification: dividing by (exposure + 1) spreads workers
    //    across equities instead of piling onto one.
    double global_mean = 0.0;
    std::size_t observed = 0;
    for (const auto& eq : equities_) {
      if (eq.unit_cost.count() > 0) {
        global_mean += eq.unit_cost.sum();
        observed += eq.unit_cost.count();
      }
    }
    global_mean = observed > 0 ? global_mean / static_cast<double>(observed)
                               : 1.0;

    double best_score = -1.0;
    std::size_t best_equity = SIZE_MAX;
    for (std::size_t e = 0; e < equities_.size(); ++e) {
      const Equity& eq = equities_[e];
      if (eq.units_open == 0) continue;
      double mean_cost;
      if (eq.unit_cost.count() == 0) {
        if (eq.prior_mean >= 0.0) {
          // A past run (via the yield ledger) already priced this subtree:
          // start from its risk-inflated estimate instead of speculating.
          mean_cost = eq.prior_mean + eq.prior_dev;
        } else {
          mean_cost = 4.0 * global_mean;  // speculation: optimistic unknown
        }
      } else {
        // Risk premium: one observed-stddev of upside per unit.
        mean_cost = eq.unit_cost.mean() + eq.unit_cost.stddev();
      }
      const double remaining =
          static_cast<double>(eq.units_open) * std::max(mean_cost, 1.0);
      const double score =
          remaining / static_cast<double>(eq.exposure + 1);
      if (score > best_score) {
        best_score = score;
        best_equity = e;
      }
    }
    if (best_equity == SIZE_MAX) return std::nullopt;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const std::size_t u = *it;
      if (done_[u] || in_flight_[u]) continue;
      if (units_[u].equity != best_equity) continue;
      queue_.erase(it);
      in_flight_[u] = true;
      equities_[best_equity].exposure++;
      return u;
    }
    // Fall back to anything open.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const std::size_t u = *it;
      if (done_[u] || in_flight_[u]) continue;
      queue_.erase(it);
      in_flight_[u] = true;
      equities_[units_[u].equity].exposure++;
      return u;
    }
    return std::nullopt;
  }

  bool complete(std::size_t unit) {
    if (done_[unit]) return false;
    done_[unit] = true;
    in_flight_[unit] = false;
    auto& eq = equities_[units_[unit].equity];
    SB_CHECK(eq.units_open > 0);
    eq.units_open--;
    if (eq.exposure > 0) eq.exposure--;
    eq.unit_cost.add(static_cast<double>(units_[unit].total_cost));
    remaining_--;
    return true;
  }

  // Work lost with a dead worker: back on the queue (dynamic/portfolio) or
  // back into the owner's share (static — it must wait for the respawn).
  void requeue(std::size_t unit, std::size_t worker) {
    if (done_[unit]) return;
    in_flight_[unit] = false;
    auto& eq = equities_[units_[unit].equity];
    if (eq.exposure > 0) eq.exposure--;
    if (strategy_ == PartitionStrategy::kStatic) {
      static_share_[worker].push_front(unit);
    } else {
      queue_.push_front(unit);
    }
  }

  bool all_done() const { return remaining_ == 0; }
  const WorkUnit& unit(std::size_t id) const { return units_[id]; }
  std::size_t num_units() const { return units_.size(); }

  void set_equity_prior(std::size_t e, double mean, double dev) {
    equities_[e].prior_mean = mean;
    equities_[e].prior_dev = dev;
  }
  const std::vector<Equity>& equities() const { return equities_; }

 private:
  std::vector<WorkUnit> units_;
  PartitionStrategy strategy_;
  std::vector<Equity> equities_;
  std::deque<std::size_t> queue_;
  std::vector<std::deque<std::size_t>> static_share_;
  std::vector<bool> done_;
  std::vector<bool> in_flight_;
  std::size_t remaining_ = 0;

 public:
  void set_remaining(std::size_t n) { remaining_ = n; }
};

}  // namespace

CoopResult run_cooperative_exploration(const CorpusEntry& entry,
                                       const CoopConfig& config) {
  SB_CHECK(config.num_workers >= 1);
  CoopResult result;

  // Ground truth: the full path set with real symbolic costs.
  ExploreOptions opt;
  opt.input_domains = domains_of(entry);
  opt.max_paths = 1u << 20;
  SymbolicExecutor ex(entry.program, opt);
  const auto paths = ex.explore();
  result.complete = ex.stats().complete;

  // Partition paths into prefix units of depth `split_depth` and equities
  // by first decision. Units are keyed on the collective tree's node ids —
  // every path with the same truncated prefix lands on the same (stable,
  // append-only) node, so the key is one uint32 instead of a decision
  // vector, and the depth-k walk replaces a vector copy per path.
  ExecTree tree(entry.program.id);
  for (const auto& p : paths) tree.add_path(p.decisions, Outcome::kOk);
  std::map<std::uint32_t, WorkUnit> unit_map;  // prefix node id -> unit
  std::map<SymDecision, std::size_t> equity_ids;
  for (const auto& p : paths) {
    std::vector<SymDecision> prefix = p.decisions;
    if (prefix.size() > config.split_depth) prefix.resize(config.split_depth);
    const std::uint32_t node = tree.node_at(prefix);
    SB_CHECK(node != ExecTree::kNoNode);  // the path was just merged
    WorkUnit& u = unit_map[node];
    u.path_costs.push_back(std::max<std::uint64_t>(p.steps, 1));
    u.total_cost += std::max<std::uint64_t>(p.steps, 1);
    const SymDecision top =
        p.decisions.empty() ? SymDecision{0, false} : p.decisions.front();
    auto [it, inserted] = equity_ids.try_emplace(top, equity_ids.size());
    u.equity = it->second;
  }
  // Equity id -> its defining top decision (for ledger keys).
  std::vector<SymDecision> equity_top(equity_ids.size());
  for (const auto& [top, id] : equity_ids) equity_top[id] = top;
  // Flatten in lexicographic prefix order — reconstructed on demand from
  // the tree's parent links — so unit numbering (and thus the static
  // partition and every strategy's deterministic outcome) is identical to
  // the original prefix-keyed map.
  std::vector<std::pair<std::vector<SymDecision>, WorkUnit*>> ordered;
  ordered.reserve(unit_map.size());
  for (auto& [node, u] : unit_map) {
    ordered.emplace_back(tree.path_to(node), &u);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WorkUnit> units;
  units.reserve(ordered.size());
  for (auto& [prefix, u] : ordered) {
    u->id = units.size();
    units.push_back(std::move(*u));
  }
  const std::size_t num_units = units.size();
  const std::size_t num_equities = std::max<std::size_t>(equity_ids.size(), 1);

  Coordinator coord(std::move(units), config.strategy, config.num_workers,
                    num_equities);
  coord.set_remaining(num_units);
  if (config.yield != nullptr) {
    for (std::size_t e = 0; e < equity_top.size(); ++e) {
      const auto* prior = config.yield->equity(
          entry.program.id,
          YieldLedger::equity_key(equity_top[e].site, equity_top[e].taken));
      if (prior != nullptr && prior->units > 0) {
        coord.set_equity_prior(e, prior->mean_cost, prior->dev);
      }
    }
  }

  SimNet net(config.net);
  const Endpoint coord_ep = net.add_endpoint();
  std::vector<Worker> workers(config.num_workers);
  for (auto& w : workers) w.endpoint = net.add_endpoint();

  Rng rng(config.seed ^ 0xc00b);
  std::map<std::size_t, UnitAssignment> live_assignments;  // unit -> assignment

  auto payload_of = [](std::size_t unit) {
    Bytes b;
    put_varint(b, unit);
    return b;
  };
  auto unit_of = [](const Bytes& b) -> std::optional<std::size_t> {
    std::size_t pos = 0;
    auto v = get_varint(b, pos);
    if (!v || pos != b.size()) return std::optional<std::size_t>{};
    return static_cast<std::size_t>(*v);
  };

  std::uint64_t tick = 0;
  for (; tick < config.max_ticks && !coord.all_done(); ++tick) {
    net.tick();

    // --- coordinator ---------------------------------------------------
    for (const auto& msg : net.drain(coord_ep)) {
      const auto unit = unit_of(msg.payload);
      if (!unit) continue;
      if (msg.type == kMsgWorkResult) {
        if (*unit < coord.num_units() && coord.complete(*unit)) {
          result.paths_explored += coord.unit(*unit).path_costs.size();
        }
        live_assignments.erase(*unit);
      } else if (msg.type == kMsgWorkRequest) {
        // Worker index encoded in the payload for requests.
        const std::size_t worker_idx = *unit;
        if (worker_idx >= workers.size()) continue;
        const auto assigned = coord.assign(worker_idx);
        if (assigned) {
          live_assignments[*assigned] = {*assigned, tick, worker_idx};
          net.send(coord_ep, workers[worker_idx].endpoint, kMsgWorkAssign,
                   payload_of(*assigned));
        }
      }
    }
    // Death/timeout detection. Dead workers' assignments are re-queued
    // after the detection delay; assignments to live workers also time out
    // (covers lost assign/result messages on the lossy network) after a
    // generous multiple of the unit's expected processing time.
    for (auto it = live_assignments.begin(); it != live_assignments.end();) {
      const Worker& w = workers[it->second.worker];
      const std::uint64_t age = tick - it->second.assigned_tick;
      const std::uint64_t expected =
          coord.unit(it->first).total_cost / config.steps_per_tick + 1;
      const bool timed_out =
          (!w.alive && age >= config.death_detect_ticks) ||
          age >= 4 * expected + config.death_detect_ticks + 40;
      if (timed_out) {
        coord.requeue(it->first, it->second.worker);
        it = live_assignments.erase(it);
      } else {
        ++it;
      }
    }

    // --- workers ---------------------------------------------------------
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      Worker& w = workers[wi];
      if (!w.alive) {
        if (tick >= w.respawn_at) {
          w.alive = true;
          w.unit.reset();
        } else {
          continue;
        }
      }
      // Churn: busy workers die, losing their in-progress unit.
      if (w.unit && config.churn_prob > 0 &&
          rng.next_bool(config.churn_prob)) {
        w.alive = false;
        w.respawn_at = tick + config.respawn_ticks;
        result.worker_deaths++;
        result.wasted_steps += w.steps_done_in_unit;
        w.unit.reset();
        w.steps_done_in_unit = 0;
        continue;
      }

      for (const auto& msg : net.drain(w.endpoint)) {
        if (msg.type != kMsgWorkAssign || w.unit) continue;
        const auto unit = unit_of(msg.payload);
        if (!unit || *unit >= coord.num_units()) continue;
        w.unit = *unit;
        w.path_index = 0;
        w.paths_done_in_unit = 0;
        w.steps_done_in_unit = 0;
        w.remaining_in_path = coord.unit(*unit).path_costs.empty()
                                  ? 0
                                  : coord.unit(*unit).path_costs[0];
      }

      if (!w.unit) {
        result.idle_ticks++;
        // (Re-)request work, with retry because the network drops messages.
        if (tick == 0 || tick - w.last_request_tick >= 8) {
          Bytes b;
          put_varint(b, wi);
          net.send(w.endpoint, coord_ep, kMsgWorkRequest, b);
          w.last_request_tick = tick;
        }
        continue;
      }

      // Burn through path costs.
      std::uint64_t budget = config.steps_per_tick;
      const WorkUnit& unit = coord.unit(*w.unit);
      while (budget > 0 && w.path_index < unit.path_costs.size()) {
        const std::uint64_t burn = std::min(budget, w.remaining_in_path);
        budget -= burn;
        w.remaining_in_path -= burn;
        w.steps_done_in_unit += burn;
        result.useful_steps += burn;
        if (w.remaining_in_path == 0) {
          w.paths_done_in_unit++;
          w.path_index++;
          if (w.path_index < unit.path_costs.size()) {
            w.remaining_in_path = unit.path_costs[w.path_index];
          }
        }
      }
      if (w.path_index >= unit.path_costs.size()) {
        net.send(w.endpoint, coord_ep, kMsgWorkResult, payload_of(*w.unit));
        w.unit.reset();
        w.steps_done_in_unit = 0;
        // Immediately ask for more.
        Bytes b;
        put_varint(b, wi);
        net.send(w.endpoint, coord_ep, kMsgWorkRequest, b);
        w.last_request_tick = tick;
      }
    }
  }

  result.ticks = tick;
  result.messages = net.stats().sent;
  result.complete = result.complete && coord.all_done();
  result.strategy = config.strategy;
  if (config.yield != nullptr) {
    // Epilogue write-back: this run's observed subtree costs become the
    // next run's priors.
    const auto& eqs = coord.equities();
    for (std::size_t e = 0; e < eqs.size() && e < equity_top.size(); ++e) {
      if (eqs[e].unit_cost.count() == 0) continue;
      config.yield->observe_equity(
          entry.program.id,
          YieldLedger::equity_key(equity_top[e].site, equity_top[e].taken),
          eqs[e].unit_cost.mean(), eqs[e].unit_cost.count());
    }
  }
  return result;
}

}  // namespace softborg
