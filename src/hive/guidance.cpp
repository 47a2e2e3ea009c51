#include "hive/guidance.h"

#include "minivm/decode.h"
#include "minivm/interp.h"

namespace softborg {

std::vector<GuidanceDirective> GuidancePlanner::plan_frontier(
    const CorpusEntry& entry, const ExecTree& tree,
    std::size_t max_directives) {
  std::vector<GuidanceDirective> out;
  if (entry.program.num_threads() != 1) return out;

  const std::size_t budget =
      config_.effective_frontier_budget(max_directives);
  const auto frontiers = tree.frontier(budget);
  for (const auto& f : frontiers) {
    if (out.size() >= max_directives) break;

    std::vector<SymDecision> target = f.prefix;
    target.push_back({f.site, f.direction});

    ExploreOptions opt;
    opt.input_domains = domains_of(entry);
    opt.max_paths = config_.max_paths_per_frontier;
    opt.solver = config_.solver;
    opt.check_crashes = false;  // guidance only needs a witness
    SymbolicExecutor ex(entry.program, opt);
    const auto paths = ex.explore_subtree(target);
    if (paths.empty()) continue;  // infeasible or budget; proof engine's job

    const SymPath& witness = paths.front();
    GuidanceDirective d;
    d.program = entry.program.id;
    d.input_seed = witness.model.inputs;
    if (!witness.model.unknowns.empty()) {
      FaultPlan faults;
      for (std::size_t j = 0; j < witness.model.unknowns.size(); ++j) {
        faults.forced[static_cast<std::uint32_t>(j)] =
            witness.model.unknowns[j];
      }
      d.faults = std::move(faults);
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<GuidanceDirective> GuidancePlanner::plan_schedules(
    const CorpusEntry& entry, std::size_t max_directives, Rng& rng) {
  std::vector<GuidanceDirective> out;
  const std::size_t threads = entry.program.num_threads();
  if (threads < 2) return out;

  // Lock-targeted plans: dry-run each thread solo (the hive has P, so it
  // can probe locally) and learn the step at which the thread first
  // acquires a lock. Interleavings that park every thread just past its
  // first acquisition before mixing are exactly the schedules where lock
  // cycles close — the "rare in practice" interleavings of §3.3.
  const auto decoded = predecode_cached(entry.program, nullptr);
  std::vector<Value> sample_inputs;
  std::vector<std::uint32_t> first_acquire(threads, 0);
  auto resample = [&]() {
    sample_inputs.clear();
    for (const auto& d : entry.domains) {
      sample_inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    bool any = false;
    for (std::size_t t = 0; t < threads; ++t) {
      SchedulePlan solo;
      solo.runs = {{static_cast<std::uint8_t>(t), 1'000'000}};
      ExecConfig cfg;
      cfg.inputs = sample_inputs;
      cfg.seed = rng();
      cfg.schedule_plan = &solo;
      cfg.granularity = Granularity::kFull;
      cfg.max_steps = 20'000;
      const auto probe = execute(entry.program, *decoded, cfg);
      first_acquire[t] = 0;
      for (const auto& ev : probe.trace.lock_events) {
        if (ev.thread == t && ev.acquire) {
          first_acquire[t] = ev.step;  // run exactly through the acquire
          any = true;
          break;
        }
      }
    }
    return any;
  };
  bool have_targets = resample();

  for (std::size_t i = 0; i < max_directives; ++i) {
    GuidanceDirective d;
    d.program = entry.program.id;
    SchedulePlan plan;

    if (have_targets && i % 3 != 2) {
      // Targeted: rotate which thread leads; refresh the probe sample every
      // full rotation so different inputs get covered too.
      if (i > 0 && i % (2 * threads) == 0) have_targets = resample();
      const std::size_t rot = i % threads;
      for (std::size_t k = 0; k < threads; ++k) {
        const std::size_t t = (rot + k) % threads;
        if (first_acquire[t] > 0) {
          plan.runs.push_back({static_cast<std::uint8_t>(t),
                               first_acquire[t]});
        }
      }
      for (int round = 0; round < 16; ++round) {
        for (std::size_t t = 0; t < threads; ++t) {
          plan.runs.push_back({static_cast<std::uint8_t>(t), 2});
        }
      }
      d.input_seed = sample_inputs;
    } else {
      // Random mix with heavy-tailed run lengths (diversity).
      for (int k = 0; k < 24; ++k) {
        const std::uint8_t t =
            static_cast<std::uint8_t>(rng.next_below(threads));
        const std::uint32_t len = rng.next_bool(0.2)
                                      ? 20 + static_cast<std::uint32_t>(
                                                 rng.next_below(30))
                                      : 1 + static_cast<std::uint32_t>(
                                                rng.next_below(5));
        plan.runs.push_back({t, len});
      }
    }
    d.schedule = std::move(plan);
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace softborg
