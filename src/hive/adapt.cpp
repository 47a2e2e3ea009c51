#include "hive/adapt.h"

#include <algorithm>
#include <cmath>

namespace softborg {

// --- YieldLedger ------------------------------------------------------------

void YieldLedger::note_work(ProgramId program, std::uint64_t units) {
  programs_[program.value].work_pending += units;
}

void YieldLedger::observe_program(ProgramId program, std::size_t total_paths,
                                  std::size_t open_frontiers,
                                  bool has_valid_proof) {
  ProgramState& st = programs_[program.value];
  st.est.opportunity = static_cast<double>(open_frontiers);
  st.est.proven = has_valid_proof;
  if (!st.baselined) {
    // First sighting: no delta to score yet, just anchor the baseline.
    st.baselined = true;
    st.last_total_paths = total_paths;
    st.work_pending = 0;
    return;
  }
  const std::uint64_t gained =
      total_paths > st.last_total_paths ? total_paths - st.last_total_paths
                                        : 0;
  const double work =
      static_cast<double>(std::max<std::uint64_t>(st.work_pending, 1));
  const double obs = static_cast<double>(gained) / work;
  ewma(st.est.ret, obs);
  ewma(st.est.risk, std::fabs(obs - st.est.ret));
  st.est.observations++;
  st.last_total_paths = total_paths;
  st.work_pending = 0;
}

const YieldLedger::Estimate* YieldLedger::estimate(ProgramId program) const {
  const auto it = programs_.find(program.value);
  return it == programs_.end() ? nullptr : &it->second.est;
}

void YieldLedger::observe_equity(ProgramId program, std::uint64_t key,
                                 double mean_unit_cost, std::uint64_t units) {
  if (units == 0) return;
  EquityEstimate& eq = equities_[{program.value, key}];
  if (eq.units == 0) {
    eq.mean_cost = mean_unit_cost;
  } else {
    ewma(eq.mean_cost, mean_unit_cost);
  }
  ewma(eq.dev, std::fabs(mean_unit_cost - eq.mean_cost));
  eq.units += units;
}

const YieldLedger::EquityEstimate* YieldLedger::equity(
    ProgramId program, std::uint64_t key) const {
  const auto it = equities_.find({program.value, key});
  return it == equities_.end() ? nullptr : &it->second;
}

void YieldLedger::observe_hive(const IngestStats& ingest) {
  const std::uint64_t hits = ingest.replay_cache_hits - replay_hits_base_;
  const std::uint64_t misses =
      ingest.replay_cache_misses - replay_misses_base_;
  if (hits + misses > 0) {
    ewma(replay_recycle_rate_,
         static_cast<double>(hits) / static_cast<double>(hits + misses));
  }
  replay_hits_base_ = ingest.replay_cache_hits;
  replay_misses_base_ = ingest.replay_cache_misses;
}

void YieldLedger::ingest_metrics_delta(const obs::MetricsSnapshot& delta) {
  const auto value = [&](const char* name) -> std::uint64_t {
    const auto v = delta.counter_value(name);
    return v.has_value() ? *v : 0;
  };
  const std::uint64_t hits = value("hive.replay.cache_hits_total");
  const std::uint64_t misses = value("hive.replay.cache_misses_total");
  if (hits + misses > 0) {
    ewma(replay_recycle_rate_,
         static_cast<double>(hits) / static_cast<double>(hits + misses));
  }
}

void YieldLedger::save_planning_state(Bytes& out) const {
  put_varint(out, programs_.size());
  for (const auto& [key, st] : programs_) {
    put_varint(out, key);
    encode_fields(out, st);
  }
  put_varint(out, equities_.size());
  for (const auto& [key, eq] : equities_) {
    put_varint(out, key.first);
    put_varint(out, key.second);
    encode_fields(out, eq);
  }
}

void YieldLedger::save_state(Bytes& out) const {
  save_planning_state(out);
  put_f64(out, replay_recycle_rate_);
  put_varint(out, replay_hits_base_);
  put_varint(out, replay_misses_base_);
}

bool YieldLedger::load_state(StateReader& r) {
  programs_.clear();
  equities_.clear();
  const std::uint64_t n_programs = r.count(1 + leaf_count<ProgramState>());
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < n_programs && r.ok(); ++i) {
    const std::uint64_t key = r.u64();
    if (i > 0 && key <= prev_key) {
      r.fail();  // sorted, unique — anything else is corruption
      return false;
    }
    prev_key = key;
    decode_fields(r, programs_[key]);
  }
  const std::uint64_t n_equities = r.count(2 + leaf_count<EquityEstimate>());
  std::pair<std::uint64_t, std::uint64_t> prev_eq{0, 0};
  for (std::uint64_t i = 0; i < n_equities && r.ok(); ++i) {
    std::pair<std::uint64_t, std::uint64_t> key;
    key.first = r.u64();
    key.second = r.u64();
    if (i > 0 && key <= prev_eq) {
      r.fail();
      return false;
    }
    prev_eq = key;
    decode_fields(r, equities_[key]);
  }
  replay_recycle_rate_ = r.f64();
  replay_hits_base_ = r.u64();
  replay_misses_base_ = r.u64();
  return r.ok();
}

bool YieldLedger::state_equals(const YieldLedger& other) const {
  Bytes a, b;
  save_state(a);
  other.save_state(b);
  return a == b;
}

bool YieldLedger::planning_state_equals(const YieldLedger& other) const {
  Bytes a, b;
  save_planning_state(a);
  other.save_planning_state(b);
  return a == b;
}

// --- AdaptivePlanner --------------------------------------------------------

double AdaptivePlanner::score(const YieldLedger& ledger,
                              ProgramId program) const {
  const YieldLedger::Estimate* e = ledger.estimate(program);
  const double opportunity = e != nullptr ? e->opportunity : 1.0;
  const bool proven = e != nullptr && e->proven;
  if (proven && opportunity <= 0.0) return 0.0;  // saturated: fully explored
                                                 // and certified
  const std::uint64_t n = e != nullptr ? e->observations : 0;
  const double mean_ret = n > 0 ? e->ret : 0.0;
  const double risk = e != nullptr ? e->risk : 0.0;
  const double bonus =
      config_.optimism / std::sqrt(1.0 + static_cast<double>(n));
  // Relative risk: deviation per unit of (return + 1) so risky-but-rich
  // targets are not starved outright, only discounted.
  const double rel_risk = risk / (mean_ret + 1.0);
  double s = (mean_ret + bonus) / (1.0 + config_.risk_aversion * rel_risk);
  // A complete-but-unproven tree still deserves proof/validation budget,
  // just not the exploration premium.
  if (opportunity <= 0.0) s *= 0.25;
  return s;
}

std::vector<std::size_t> AdaptivePlanner::allocate(
    std::size_t budget, const std::vector<ProgramId>& targets,
    const YieldLedger& ledger) const {
  std::vector<std::size_t> shares(targets.size(), 0);
  if (targets.empty() || budget == 0) return shares;

  std::vector<double> weights(targets.size());
  double total = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    weights[i] = std::max(score(ledger, targets[i]), 0.0);
    total += weights[i];
  }
  if (total <= 0.0) {
    // No signal anywhere: degrade to the static uniform split.
    weights.assign(targets.size(), 1.0);
    total = static_cast<double>(targets.size());
  }

  // Largest-remainder apportionment: floor the proportional shares, then
  // hand the leftover units to the largest fractional remainders (ties to
  // the lower index), so shares always sum exactly to `budget`.
  std::vector<double> remainders(targets.size());
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const double exact =
        static_cast<double>(budget) * weights[i] / total;
    shares[i] = static_cast<std::size_t>(exact);
    remainders[i] = exact - static_cast<double>(shares[i]);
    assigned += shares[i];
  }
  std::vector<std::size_t> order(targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (remainders[a] != remainders[b]) return remainders[a] > remainders[b];
    return a < b;
  });
  for (std::size_t k = 0; assigned < budget; k = (k + 1) % order.size()) {
    shares[order[k]]++;
    assigned++;
  }
  return shares;
}

std::vector<std::size_t> AdaptivePlanner::rank(
    const std::vector<ProgramId>& targets, const YieldLedger& ledger) const {
  std::vector<double> scores(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    scores[i] = score(ledger, targets[i]);
  }
  std::vector<std::size_t> order(targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

}  // namespace softborg
