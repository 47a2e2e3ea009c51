#include "core/world.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/fields.h"
#include "common/fsio.h"
#include "common/log.h"
#include "common/state_wire.h"
#include "obs/span.h"
#include "store/store.h"
#include "trace/codec.h"

namespace softborg {

World::World(std::vector<CorpusEntry> corpus, WorldConfig config)
    : corpus_(std::move(corpus)), config_(config), rng_(config.seed),
      ledger_(config.adapt), adapt_planner_(config.adapt),
      net_(config.net) {
  SB_CHECK(!corpus_.empty());
  hive_endpoint_ = net_.add_endpoint();
  hive_ = std::make_unique<Hive>(&corpus_, config_.hive);

  std::uint64_t next_pod_id = 1;
  for (std::size_t ci = 0; ci < corpus_.size(); ++ci) {
    for (std::size_t i = 0; i < config_.pods_per_program; ++i) {
      PodSlot slot;
      slot.corpus_index = ci;
      slot.endpoint = net_.add_endpoint();
      slot.pod = std::make_unique<Pod>(PodId(next_pod_id++), corpus_[ci],
                                       random_profile(corpus_[ci]),
                                       config_.pod_config, rng_());
      pods_.push_back(std::move(slot));
    }
  }
}

UserProfile World::random_profile(const CorpusEntry& entry) {
  UserProfile profile;
  // Heterogeneous usage: rates spread around the mean with a heavy tail.
  const double r = rng_.next_double();
  profile.executions_per_day =
      config_.mean_runs_per_day * (r < 0.1 ? 4.0 : (r < 0.5 ? 1.0 : 0.4));
  // Each user draws inputs from their own window of the domain (about a
  // third of it), except "power users" (20%) who roam the full domain.
  if (!rng_.next_bool(0.2)) {
    for (const auto& d : entry.domains) {
      const Value width = d.width();
      const Value window = std::max<Value>(width / 3, 1);
      const Value start =
          d.lo + rng_.next_in(0, std::max<Value>(width - window, 0));
      profile.input_prefs.push_back(
          {start, std::min(start + window - 1, d.hi)});
    }
  }
  return profile;
}

void World::deliver_downstream() {
  for (auto& slot : pods_) {
    for (const auto& msg : net_.drain(slot.endpoint)) {
      switch (msg.type) {
        case kMsgGuardPatch: {
          if (auto patch = decode_guard_patch(msg.payload)) {
            slot.pod->install(*patch);
          }
          break;
        }
        case kMsgCrashGuard: {
          if (auto fix = decode_crash_guard(msg.payload)) {
            slot.pod->install(*fix);
          }
          break;
        }
        case kMsgLockFix: {
          if (auto fix = decode_lock_fix(msg.payload)) {
            slot.pod->install(*fix);
          }
          break;
        }
        case kMsgGuidance: {
          if (auto directive = decode_guidance(msg.payload)) {
            slot.pod->push_guidance(std::move(*directive));
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

void World::send_fix_to(const FixCandidate& candidate, const PodSlot& slot) {
  std::visit(
      [&](const auto& fix) {
        using T = std::decay_t<decltype(fix)>;
        if constexpr (std::is_same_v<T, GuardPatch>) {
          net_.send(hive_endpoint_, slot.endpoint, kMsgGuardPatch,
                    encode_guard_patch(fix));
        } else if constexpr (std::is_same_v<T, CrashGuardFix>) {
          net_.send(hive_endpoint_, slot.endpoint, kMsgCrashGuard,
                    encode_crash_guard(fix));
        } else {
          net_.send(hive_endpoint_, slot.endpoint, kMsgLockFix,
                    encode_lock_fix(fix));
        }
      },
      candidate.fix);
}

void World::broadcast_fixes(const std::vector<FixCandidate>& fixes) {
  for (const auto& candidate : fixes) {
    fixes_distributed_++;
    std::size_t program_index = 0;
    for (const auto& slot : pods_) {
      if (slot.pod->program() != candidate.program) continue;
      const bool in_canary =
          config_.canary_fraction >= 1.0 ||
          static_cast<double>(program_index) <
              config_.canary_fraction *
                  static_cast<double>(config_.pods_per_program);
      program_index++;
      if (in_canary) send_fix_to(candidate, slot);
    }
    if (config_.canary_fraction < 1.0) {
      pending_rollouts_.push_back(
          {candidate, day_ + config_.canary_days});
    }
  }
}

void World::advance_rollouts() {
  for (auto it = pending_rollouts_.begin(); it != pending_rollouts_.end();) {
    if (day_ < it->full_rollout_day) {
      ++it;
      continue;
    }
    // The canary verdict: if the hive's telemetry reopened the bug, the
    // fix is not holding — cancel the full rollout.
    const Bug* bug = hive_->bug_tracker().find(it->candidate.bug);
    if (bug != nullptr && !bug->fixed) {
      rollouts_cancelled_++;
      it = pending_rollouts_.erase(it);
      continue;
    }
    std::size_t program_index = 0;
    for (const auto& slot : pods_) {
      if (slot.pod->program() != it->candidate.program) continue;
      const bool was_canary =
          static_cast<double>(program_index) <
          config_.canary_fraction *
              static_cast<double>(config_.pods_per_program);
      program_index++;
      if (!was_canary) send_fix_to(it->candidate, slot);
    }
    it = pending_rollouts_.erase(it);
  }
}

void World::send_guidance() {
  if (config_.guidance_per_program_per_day == 0) return;
  std::vector<GuidanceDirective> directives;
  if (config_.adapt.static_plan) {
    // Historical schedule: every program gets the same per-program budget.
    // This branch must not touch the ledger-driven path — the differential
    // suites pin it byte-identical to the pre-adaptive pipeline.
    directives = hive_->plan_guidance(config_.guidance_per_program_per_day);
  } else {
    // Adaptive schedule: the same total directive pool, split across
    // programs by risk-adjusted yield instead of uniformly.
    std::vector<ProgramId> targets;
    targets.reserve(corpus_.size());
    for (const auto& entry : corpus_) targets.push_back(entry.program.id);
    auto shares = adapt_planner_.allocate(
        config_.guidance_per_program_per_day * corpus_.size(), targets,
        ledger_);
    // Cap each share at the program's fleet absorption capacity: a pod
    // consumes at most one queued directive per run, so anything beyond
    // pods × mean daily runs only builds a backlog of stale directives
    // (frontiers long since closed by the time a pod executes them).
    // Freed units are re-spread to unsaturated programs in score order;
    // whatever exceeds the whole fleet's capacity is dropped.
    std::vector<std::size_t> pod_count(corpus_.size(), 0);
    for (const auto& slot : pods_) pod_count[slot.corpus_index]++;
    const auto capacity = [&](std::size_t i) {
      return pod_count[i] *
             static_cast<std::size_t>(
                 std::ceil(std::max(config_.mean_runs_per_day, 1.0)));
    };
    std::size_t freed = 0;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      const std::size_t cap = capacity(i);
      if (shares[i] > cap) {
        freed += shares[i] - cap;
        shares[i] = cap;
      }
    }
    for (const std::size_t i : adapt_planner_.rank(targets, ledger_)) {
      if (freed == 0) break;
      if (adapt_planner_.score(ledger_, targets[i]) <= 0.0) break;
      const std::size_t room = capacity(i) - std::min(capacity(i), shares[i]);
      const std::size_t grant = std::min(room, freed);
      shares[i] += grant;
      freed -= grant;
    }
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      if (shares[i] == 0) continue;
      auto planned = hive_->plan_guidance_for(corpus_[i], shares[i]);
      directives.insert(directives.end(),
                        std::make_move_iterator(planned.begin()),
                        std::make_move_iterator(planned.end()));
    }
  }
  // Charge the invested directives to the ledger (in both modes, so static
  // runs accumulate warm estimates for a later flip to adaptive).
  for (const auto& d : directives) ledger_.note_work(d.program, 1);
  for (const auto& d : directives) {
    // Pick a random pod of the right program.
    std::vector<const PodSlot*> eligible;
    for (const auto& slot : pods_) {
      if (slot.pod->program() == d.program) eligible.push_back(&slot);
    }
    if (eligible.empty()) continue;
    const PodSlot* target = eligible[rng_.next_below(eligible.size())];
    net_.send(hive_endpoint_, target->endpoint, kMsgGuidance,
              encode_guidance(d));
  }
}

void World::attempt_daily_proofs() {
  if (config_.proof_programs_per_day == 0 || corpus_.empty()) return;
  const std::size_t n =
      std::min(config_.proof_programs_per_day, corpus_.size());
  std::vector<const CorpusEntry*> slice;
  slice.reserve(n);
  if (config_.adapt.static_plan) {
    // Historical schedule: a rotating corpus slice, the whole fleet swept
    // every ceil(corpus / n) days regardless of where proofs might land.
    const std::size_t start = ((day_ - 1) * n) % corpus_.size();
    for (std::size_t i = 0; i < n; ++i) {
      slice.push_back(&corpus_[(start + i) % corpus_.size()]);
    }
  } else {
    // Adaptive schedule: spend the day's proof slots on the highest-scoring
    // programs. Saturated programs (complete tree + standing certificate)
    // score 0 and sink to the bottom, so slots migrate to open work.
    std::vector<ProgramId> targets;
    targets.reserve(corpus_.size());
    for (const auto& entry : corpus_) targets.push_back(entry.program.id);
    const auto order = adapt_planner_.rank(targets, ledger_);
    for (std::size_t i = 0; i < n; ++i) slice.push_back(&corpus_[order[i]]);
  }
  for (const CorpusEntry* entry : slice) {
    ledger_.note_work(entry->program.id, 1);
  }
  hive_->attempt_proofs_for(slice, config_.proof_property);
}

void World::run_daily_coop(DayMetrics& metrics) {
  if (config_.coop_programs_per_day == 0 || corpus_.empty()) return;
  // Cooperative exploration runs the symbolic engine, which (like guidance
  // planning and proof attempts) only handles single-threaded programs.
  std::vector<std::size_t> candidates;
  candidates.reserve(corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    if (corpus_[i].program.num_threads() == 1) candidates.push_back(i);
  }
  if (candidates.empty()) return;
  const std::size_t n =
      std::min(config_.coop_programs_per_day, candidates.size());
  std::vector<std::size_t> picks;
  picks.reserve(n);
  std::vector<std::size_t> workers(n, config_.coop.num_workers);
  if (config_.adapt.static_plan) {
    // Rotating slice, uniform worker investment — mirrors the proof slice.
    const std::size_t start = ((day_ - 1) * n) % candidates.size();
    for (std::size_t i = 0; i < n; ++i) {
      picks.push_back(candidates[(start + i) % candidates.size()]);
    }
  } else {
    // Top-ranked programs, with the day's total worker pool allocated
    // across them by yield (every pick keeps at least one worker).
    std::vector<ProgramId> targets;
    targets.reserve(candidates.size());
    for (const std::size_t c : candidates) {
      targets.push_back(corpus_[c].program.id);
    }
    const auto order = adapt_planner_.rank(targets, ledger_);
    picks.clear();
    for (std::size_t i = 0; i < n; ++i) picks.push_back(candidates[order[i]]);
    std::vector<ProgramId> pick_ids;
    pick_ids.reserve(n);
    for (const std::size_t p : picks) pick_ids.push_back(corpus_[p].program.id);
    const auto shares = adapt_planner_.allocate(
        n * config_.coop.num_workers, pick_ids, ledger_);
    for (std::size_t i = 0; i < n; ++i) {
      workers[i] = std::max<std::size_t>(shares[i], 1);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& entry = corpus_[picks[i]];
    CoopConfig cc = config_.coop;
    cc.num_workers = workers[i];
    // Per-(day, program) seed so repeated runs of one program differ but the
    // whole schedule stays a pure function of (config, day).
    cc.seed = config_.coop.seed ^ (day_ << 20) ^ entry.program.id.value;
    // The ledger seeds portfolio equities with cross-run priors only on the
    // adaptive path; the static path keeps the historical cold start.
    cc.yield = config_.adapt.static_plan ? nullptr : &ledger_;
    ledger_.note_work(entry.program.id, cc.num_workers);
    const CoopResult result = run_cooperative_exploration(entry, cc);
    hive_->record_coop_outcome(result);
    metrics.coop_runs++;
    metrics.coop_ticks += result.ticks;
    metrics.coop_useful_steps += result.useful_steps;
    metrics.coop_wasted_steps += result.wasted_steps;
    metrics.coop_idle_ticks += result.idle_ticks;
    metrics.coop_runs_by_strategy[static_cast<std::size_t>(result.strategy)]++;
  }
}

void World::step_day() {
  SB_SPAN("world.step_day");
  day_++;
  DayMetrics metrics;
  metrics.day = day_;

  // 0. Warm start: replay the persisted regression set before the day's
  //    fresh traffic (the wires carry trace id 0, so dedup never eats them).
  if (!config_.warm_start_regressions.empty()) {
    hive_->ingest_batch(config_.warm_start_regressions);
  }

  // 1. Deliver yesterday's in-flight downstream messages.
  deliver_downstream();

  // 2. Users run their software; pods ship by-products.
  for (auto& slot : pods_) {
    const std::uint32_t n = slot.pod->draws_for_day();
    for (std::uint32_t i = 0; i < n; ++i) {
      PodRun run = slot.pod->run_once(day_);
      metrics.runs++;
      if (run.trace.outcome != Outcome::kOk) metrics.failures++;
      if (run.fix_intervened) metrics.fix_interventions++;
      net_.send(slot.endpoint, hive_endpoint_, kMsgTrace,
                encode_trace(run.trace));
      if (run.sampled.has_value()) {
        hive_->ingest_sampled(*run.sampled);  // cheap side channel
      }
    }
  }

  // 3. Let the network move, then the hive ingest everything delivered as
  //    one batch (replay and merge fan out when it misses the replay cache
  //    often enough; Hive::kFanOutMisses).
  for (std::size_t t = 0; t < config_.ticks_per_day; ++t) net_.tick();
  std::vector<Bytes> batch;
  auto messages = net_.drain(hive_endpoint_);
  batch.reserve(messages.size());
  for (auto& msg : messages) {
    if (msg.type == kMsgTrace) batch.push_back(std::move(msg.payload));
  }
  if (!batch.empty()) hive_->ingest_batch(batch);

  // 4. Analysis: bugs -> fixes -> distribution; guidance planning; proof
  //    gap closure over a rotating corpus slice.
  const auto fixes = hive_->process();
  if (config_.distribute_fixes) {
    advance_rollouts();
    broadcast_fixes(fixes);
  }
  send_guidance();
  attempt_daily_proofs();
  run_daily_coop(metrics);
  for (std::size_t t = 0; t < config_.ticks_per_day; ++t) net_.tick();

  // 5. Metrics.
  metrics.failure_rate =
      metrics.runs == 0
          ? 0.0
          : static_cast<double>(metrics.failures) /
                static_cast<double>(metrics.runs);
  metrics.bugs_found_total = hive_->bug_tracker().all().size();
  metrics.bugs_fixed_total =
      hive_->bug_tracker().all().size() - hive_->bug_tracker().open_bugs().size();
  metrics.fixes_distributed_total = fixes_distributed_;
  for (const auto& entry : corpus_) {
    if (const ExecTree* tree = hive_->tree(entry.program.id)) {
      metrics.total_paths += tree->num_paths();
      metrics.open_frontiers += tree->open_frontiers();
    }
  }
  metrics.traces_delivered_total = net_.stats().delivered;
  metrics.net_blocked_at_send_total = net_.stats().blocked_at_send;
  metrics.net_dropped_in_flight_total = net_.stats().dropped_in_flight;
  metrics.net_dropped_total = net_.stats().dropped;
  metrics.proofs_valid_total = hive_->valid_proof_count();
  metrics.proof_solver_calls_total = hive_->proof_stats().solver_calls;
  // Feed the yield ledger at this serial barrier, in both planning modes
  // (static runs keep warm estimates for a later flip to adaptive). Inputs
  // are the deterministic stats structs and tree aggregates — never the
  // process-wide registry — so ledger state is byte-identical across worker
  // counts and across cold vs resumed runs.
  for (const auto& entry : corpus_) {
    const ExecTree* tree = hive_->tree(entry.program.id);
    ledger_.observe_program(entry.program.id,
                            tree != nullptr ? tree->num_paths() : 0,
                            tree != nullptr ? tree->open_frontiers() : 0,
                            hive_->has_valid_proof(entry.program.id));
  }
  ledger_.observe_hive(hive_->ingest_stats());
  history_.push_back(metrics);
  if (config_.record_metrics) {
    metrics_history_.push_back(
        obs::MetricsRegistry::global().delta_snapshot());
  }

  SB_LOG_INFO(
      "day %llu: runs=%llu failures=%llu (%.2f%%) bugs=%zu fixed=%zu "
      "paths=%zu",
      static_cast<unsigned long long>(day_),
      static_cast<unsigned long long>(metrics.runs),
      static_cast<unsigned long long>(metrics.failures),
      metrics.failure_rate * 100.0, metrics.bugs_found_total,
      metrics.bugs_fixed_total, metrics.total_paths);

  // 6. Durable store: persist a generation at the configured cadence. A
  //    failed save is logged, not fatal — the run continues, and the
  //    previous generation stays loadable.
  if (!config_.snapshot_dir.empty() && config_.snapshot_every_n_days > 0 &&
      day_ % config_.snapshot_every_n_days == 0) {
    std::string err;
    if (!save_snapshot(config_.snapshot_dir, &err)) {
      SB_CLOG_ERROR("world", "snapshot at day %llu failed: %s",
                    static_cast<unsigned long long>(day_), err.c_str());
    }
  }
}

void World::run() {
  while (day_ < config_.days) step_day();
}

// --- durable store ----------------------------------------------------------

std::uint64_t World::config_fingerprint() const {
  Bytes b;
  encode_fields(b, config_);
  put_corpus_ids(b, corpus_);
  return fnv1a64(b.data(), b.size());
}

bool World::save_snapshot(const std::string& dir, std::string* err) const {
  std::vector<store::Part> parts;
  {
    Bytes meta;
    put_varint(meta, config_fingerprint());
    put_varint(meta, day_);
    parts.push_back({"meta", std::move(meta)});
  }
  {
    Bytes w;
    put_varint(w, day_);
    std::uint64_t rng_state[4];
    rng_.export_state(rng_state);
    for (std::uint64_t word : rng_state) put_varint(w, word);
    put_varint(w, fixes_distributed_);
    put_varint(w, rollouts_cancelled_);
    put_varint(w, pending_rollouts_.size());
    for (const auto& pr : pending_rollouts_) {
      Bytes c;
      encode_fix_candidate(c, pr.candidate);
      put_blob(w, c);
      put_varint(w, pr.full_rollout_day);
    }
    put_varint(w, history_.size());
    for (const DayMetrics& m : history_) encode_fields(w, m);
    parts.push_back({"world", std::move(w)});
  }
  {
    // Pod order is construction order, which the ctor re-derives from the
    // corpus + config — so per-pod state maps positionally.
    Bytes p;
    put_varint(p, pods_.size());
    for (const auto& slot : pods_) {
      Bytes one;
      slot.pod->save_state(one);
      put_blob(p, one);
    }
    parts.push_back({"pods", std::move(p)});
  }
  {
    Bytes n;
    net_.save_state(n);
    parts.push_back({"net", std::move(n)});
  }
  {
    Bytes h;
    hive_->save_state(h);
    parts.push_back({"hive", std::move(h)});
  }
  {
    Bytes t;
    hive_->save_trees(t);
    parts.push_back({"trees", std::move(t)});
  }
  {
    // The regression set is re-derived (not mutable state) but persisted as
    // its own part so load_regression_inputs() can warm-start a fresh fleet
    // without decoding the full hive ledger.
    Bytes reg;
    const std::vector<Bytes> wires = hive_->regression_inputs();
    put_varint(reg, wires.size());
    for (const Bytes& wire : wires) put_blob(reg, wire);
    parts.push_back({"regress", std::move(reg)});
  }
  {
    Bytes a;
    ledger_.save_state(a);
    parts.push_back({"adapt", std::move(a)});
  }
  return store::write_snapshot(dir, day_, parts, err);
}

bool World::resume_from_snapshot(const std::string& dir, std::string* err) {
  const auto snapshot = store::read_snapshot(dir, err);
  if (!snapshot.has_value()) return false;
  auto set_err = [&](const char* what) {
    if (err != nullptr) *err = what;
    return false;
  };
  const auto part = [&](const char* name) -> const Bytes* {
    const auto it = snapshot->parts.find(name);
    return it == snapshot->parts.end() ? nullptr : &it->second;
  };
  for (const char* name :
       {"meta", "world", "pods", "net", "hive", "trees", "adapt"}) {
    if (part(name) == nullptr) return set_err("snapshot missing a part");
  }

  {
    StateReader r(*part("meta"));
    const std::uint64_t fingerprint = r.u64();
    const std::uint64_t day = r.u64();
    if (!r.done()) return set_err("meta part malformed");
    if (fingerprint != config_fingerprint()) {
      return set_err("config/corpus fingerprint mismatch");
    }
    if (day != snapshot->seq) return set_err("meta day != generation seq");
  }
  {
    StateReader r(*part("world"));
    day_ = r.u64();
    std::uint64_t rng_state[4];
    for (std::uint64_t& word : rng_state) word = r.u64();
    if (!r.ok()) return set_err("world part malformed");
    rng_.import_state(rng_state);
    fixes_distributed_ = r.u64();
    rollouts_cancelled_ = r.u64();
    pending_rollouts_.clear();
    const std::uint64_t n_rollouts = r.count(2);
    for (std::uint64_t i = 0; i < n_rollouts && r.ok(); ++i) {
      Bytes c;
      r.blob(c);
      PendingRollout pr;
      StateReader cr(c);
      if (!decode_fix_candidate(cr, pr.candidate) || !cr.done()) {
        return set_err("pending rollout malformed");
      }
      pr.full_rollout_day = r.u64();
      pending_rollouts_.push_back(std::move(pr));
    }
    history_.assign(r.count(leaf_count<DayMetrics>()), {});
    for (DayMetrics& m : history_) decode_fields(r, m);
    if (!r.done()) return set_err("world part malformed");
    if (day_ != snapshot->seq) return set_err("world day != generation seq");
    if (history_.size() != day_) return set_err("history length != day");
  }
  {
    StateReader r(*part("pods"));
    if (r.u64() != pods_.size()) return set_err("pod count mismatch");
    for (auto& slot : pods_) {
      Bytes one;
      r.blob(one);
      if (!r.ok()) return set_err("pods part malformed");
      StateReader pr(one);
      if (!slot.pod->load_state(pr) || !pr.done()) {
        return set_err("pod state malformed");
      }
    }
    if (!r.done()) return set_err("pods part malformed");
  }
  {
    StateReader r(*part("net"));
    if (!net_.load_state(r) || !r.done()) {
      return set_err("net part malformed");
    }
  }
  {
    StateReader r(*part("hive"));
    if (!hive_->load_state(r) || !r.done()) {
      return set_err("hive part malformed");
    }
  }
  {
    StateReader r(*part("trees"));
    if (!hive_->load_trees(r) || !r.done()) {
      return set_err("trees part malformed");
    }
  }
  {
    StateReader r(*part("adapt"));
    if (!ledger_.load_state(r) || !r.done()) {
      return set_err("adapt part malformed");
    }
  }
  return true;
}

std::vector<Bytes> load_regression_inputs(const std::string& dir,
                                          std::string* err) {
  const auto snapshot = store::read_snapshot(dir, err);
  if (!snapshot.has_value()) return {};
  const auto it = snapshot->parts.find("regress");
  if (it == snapshot->parts.end()) {
    if (err != nullptr) *err = "snapshot has no regress part";
    return {};
  }
  StateReader r(it->second);
  std::vector<Bytes> wires;
  const std::uint64_t n = r.count();
  wires.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    Bytes wire;
    r.blob(wire);
    wires.push_back(std::move(wire));
  }
  if (!r.done()) {
    if (err != nullptr) *err = "regress part malformed";
    return {};
  }
  return wires;
}

}  // namespace softborg
