#include "hive/fixer.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "minivm/decode.h"
#include "minivm/interp.h"
#include "minivm/replay.h"
#include "pod/protocol.h"

namespace softborg {

std::vector<InputBound> input_hull(const PathConstraint& constraints,
                                   const std::vector<VarDomain>& domains,
                                   const std::vector<VarDomain>& unknowns) {
  std::vector<InputBound> hull;
  auto feasible_with = [&](std::size_t input, Value lo, Value hi) {
    PathConstraint pc = constraints;
    const Expr var = make_input(static_cast<std::uint32_t>(input));
    pc.push_back({make_bin(BinOp::kLe, make_const(lo), var), true});
    pc.push_back({make_bin(BinOp::kLe, var, make_const(hi)), true});
    return solve_path(pc, domains, unknowns).status == SolveStatus::kSat;
  };

  for (std::size_t i = 0; i < domains.size(); ++i) {
    const VarDomain d = domains[i];
    if (!feasible_with(i, d.lo, d.hi)) return {};  // constraint infeasible

    // Smallest feasible value: binary search the least m with
    // feasible([lo, m]).
    Value lo = d.lo, hi = d.hi;
    while (lo < hi) {
      const Value mid = lo + (hi - lo) / 2;
      if (feasible_with(i, d.lo, mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const Value min_v = lo;

    lo = d.lo;
    hi = d.hi;
    while (lo < hi) {
      const Value mid = lo + (hi - lo + 1) / 2;
      if (feasible_with(i, mid, d.hi)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    const Value max_v = lo;

    if (min_v == d.lo && max_v == d.hi) continue;  // unconstrained
    hull.push_back({static_cast<std::uint16_t>(i), min_v, max_v});
  }
  return hull;
}

std::vector<FixCandidate> FixSynthesizer::crash_candidates(
    const Bug& bug, const CorpusEntry& entry) {
  std::vector<FixCandidate> out;
  SB_CHECK(bug.crash.has_value());

  // Derive the crash path constraint from the exemplar trace first: its
  // input hull tells validation where the failure lives, and enables the
  // branch-steering candidate. Single-threaded programs only (the
  // decision-stream replay is deterministic there).
  std::vector<InputBound> hull;
  std::vector<SymDecision> decisions;
  if (entry.program.num_threads() == 1 && !bug.exemplar.patched &&
      bug.exemplar.granularity != Granularity::kNone &&
      bug.exemplar.granularity != Granularity::kAllBranches) {
    const auto rep = replay_trace(entry.program, bug.exemplar);
    if (rep.ok) {
      for (const auto& d : rep.decisions) {
        decisions.push_back({d.site, d.taken});
      }
      ExploreOptions opt;
      opt.input_domains = domains_of(entry);
      SymbolicExecutor ex(entry.program, opt);
      const auto path = ex.path_for_decisions(decisions, bug.exemplar.steps,
                                              bug.exemplar.crash);
      if (path.has_value() && path->terminal == PathTerminal::kCrash) {
        hull = input_hull(path->constraints, opt.input_domains,
                          path->unknown_domains);
        // Candidate: input-predicate branch steering, worthwhile only when
        // the crash region is genuinely input-bounded. The patch anchors at
        // the last *branch* decision of the crash path (check sites — the
        // crash itself — cannot be steered; they are guarded by the
        // crash-site candidate below).
        std::vector<bool> site_is_branch(entry.program.num_branch_sites,
                                         false);
        for (const auto& ins : entry.program.code) {
          if (ins.op == Op::kBranchIf) site_is_branch[ins.site] = true;
        }
        const SymDecision* anchor = nullptr;
        for (auto it = decisions.rbegin(); it != decisions.rend(); ++it) {
          if (site_is_branch[it->site]) {
            anchor = &*it;
            break;
          }
        }
        if (!hull.empty() && anchor != nullptr) {
          FixCandidate c;
          GuardPatch patch;
          patch.id = next_id();
          patch.program = entry.program.id;
          patch.site = anchor->site;
          patch.crash_direction = anchor->taken;
          patch.when = hull;
          c.fix = patch;
          c.bug = bug.id;
          c.program = entry.program.id;
          c.region_hint = hull;
          c.rationale = "steer branch site " + std::to_string(patch.site) +
                        " away from crash region " +
                        path_to_string(path->constraints);
          out.push_back(std::move(c));
        }
      }
    }
  }

  // Candidate: crash-site guard. Always applicable (covers crashes whose
  // condition depends on syscall results rather than inputs).
  {
    FixCandidate c;
    CrashGuardFix guard;
    guard.id = next_id();
    guard.program = entry.program.id;
    guard.pc = bug.crash->pc;
    guard.action = bug.crash->kind == CrashKind::kDivByZero
                       ? CrashGuardFix::Action::kSubstitute
                       : CrashGuardFix::Action::kSkip;
    guard.fallback = 0;
    c.fix = guard;
    c.bug = bug.id;
    c.program = entry.program.id;
    c.region_hint = hull;  // may be empty: then validation samples the domain
    c.rationale = "crash-site guard at pc " + std::to_string(guard.pc);
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<FixCandidate> FixSynthesizer::deadlock_candidates(
    const Bug& bug, const CorpusEntry& entry) {
  std::vector<FixCandidate> out;
  if (bug.cycle_locks.empty()) return out;
  FixCandidate c;
  LockAvoidanceFix fix;
  fix.id = next_id();
  fix.program = entry.program.id;
  fix.cycle_locks = bug.cycle_locks;
  c.fix = fix;
  c.bug = bug.id;
  c.program = entry.program.id;
  c.rationale = "serialize entry into diagnosed lock cycle (immunity)";
  out.push_back(std::move(c));
  return out;
}

void FixSynthesizer::validate(FixCandidate& candidate,
                              const CorpusEntry& entry, const Bug& bug) {
  FixSet fixes;
  std::visit(
      [&fixes](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, GuardPatch>) {
          fixes.guards.push_back(f);
        } else if constexpr (std::is_same_v<T, CrashGuardFix>) {
          fixes.crash_guards.push_back(f);
        } else {
          fixes.lock_fixes.push_back(f);
        }
      },
      candidate.fix);

  // Every run below executes one of two streams: the program bare, or with
  // the candidate installed. Look each up once, not once per run.
  const auto bare = predecode_cached(entry.program, nullptr);
  const auto fixed = predecode_cached(entry.program, &fixes);

  Rng rng(config_.seed ^ bug.id.value);
  auto draw_inputs = [&]() {
    std::vector<Value> inputs;
    for (const auto& d : entry.domains) inputs.push_back(rng.next_in(d.lo, d.hi));
    return inputs;
  };

  // (a) Region validation: re-create failing conditions and check the fix
  // averts them. For deadlocks/schedule bugs the "region" is many seeds of
  // the exemplar inputs; for crashes it is the exemplar inputs themselves
  // (plus jitter within any GuardPatch hull).
  std::uint64_t averted = 0, region_runs = 0;
  for (std::size_t i = 0; i < config_.validation_runs_region; ++i) {
    ExecConfig cfg;
    cfg.seed = rng();
    cfg.max_steps = 200'000;
    // Without recorded inputs (privacy), sample the synthesized crash
    // region when one is known; otherwise the whole domain (works when the
    // failure is frequent or environment-driven).
    std::vector<Value> inputs = draw_inputs();
    for (const auto& bound : candidate.region_hint) {
      if (bound.input < inputs.size()) {
        inputs[bound.input] = rng.next_in(bound.lo, bound.hi);
      }
    }
    cfg.inputs = std::move(inputs);

    // First check the failure still manifests without the fix (otherwise
    // the run doesn't count as region evidence).
    const auto before = execute(entry.program, *bare, cfg);
    if (before.trace.outcome == Outcome::kOk) continue;

    region_runs++;
    const auto after = execute(entry.program, *fixed, cfg);
    if (after.trace.outcome == Outcome::kOk) averted++;
  }
  candidate.averted_fraction =
      region_runs == 0 ? 0.0
                       : static_cast<double>(averted) /
                             static_cast<double>(region_runs);

  // (b) Preservation: healthy runs must stay byte-identical.
  std::uint64_t preserved = 0, healthy_runs = 0;
  for (std::size_t i = 0; i < config_.validation_runs_domain; ++i) {
    ExecConfig cfg;
    cfg.inputs = draw_inputs();
    cfg.seed = rng();
    cfg.max_steps = 200'000;

    const auto before = execute(entry.program, *bare, cfg);
    if (before.trace.outcome != Outcome::kOk) continue;

    healthy_runs++;
    const auto after = execute(entry.program, *fixed, cfg);
    // A lock-avoidance fix may legitimately intervene (yield) on healthy
    // runs — that only reorders the schedule. Guard patches and crash
    // guards, in contrast, must never fire outside the failure region.
    const bool is_lock_fix =
        std::holds_alternative<LockAvoidanceFix>(candidate.fix);
    if (after.trace.outcome == Outcome::kOk &&
        after.outputs == before.outputs &&
        (is_lock_fix || !after.fix_intervened)) {
      preserved++;
    }
  }
  candidate.preserved_fraction =
      healthy_runs == 0 ? 1.0
                        : static_cast<double>(preserved) /
                              static_cast<double>(healthy_runs);
  candidate.validation_runs = region_runs + healthy_runs;
}

std::vector<FixCandidate> FixSynthesizer::synthesize(
    const Bug& bug, const CorpusEntry& entry) {
  std::vector<FixCandidate> candidates;
  switch (bug.kind) {
    case BugKind::kCrash:
      candidates = crash_candidates(bug, entry);
      break;
    case BugKind::kDeadlock:
      candidates = deadlock_candidates(bug, entry);
      break;
    case BugKind::kScheduleAssert:
    case BugKind::kHang:
      // Not automatically fixable; the repair lab may still surface a
      // crash-site guard for humans to consider.
      if (bug.crash.has_value()) candidates = crash_candidates(bug, entry);
      break;
  }
  for (auto& c : candidates) validate(c, entry, bug);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const FixCandidate& a, const FixCandidate& b) {
                     return a.score() > b.score();
                   });
  return candidates;
}

void encode_fix_candidate(Bytes& out, const FixCandidate& c) {
  put_varint(out, c.fix.index());
  if (const auto* g = std::get_if<GuardPatch>(&c.fix)) {
    put_blob(out, encode_guard_patch(*g));
  } else if (const auto* cg = std::get_if<CrashGuardFix>(&c.fix)) {
    put_blob(out, encode_crash_guard(*cg));
  } else {
    put_blob(out, encode_lock_fix(std::get<LockAvoidanceFix>(c.fix)));
  }
  put_varint(out, c.bug.value);
  put_varint(out, c.program.value);
  put_varint(out, c.region_hint.size());
  for (const InputBound& b : c.region_hint) {
    put_varint(out, b.input);
    put_varint_signed(out, b.lo);
    put_varint_signed(out, b.hi);
  }
  put_f64(out, c.averted_fraction);
  put_f64(out, c.preserved_fraction);
  put_varint(out, c.validation_runs);
  put_str(out, c.rationale);
}

bool decode_fix_candidate(StateReader& r, FixCandidate& c) {
  const std::uint64_t tag = r.u64_max(2);
  Bytes wire;
  r.blob(wire);
  if (!r.ok()) return false;
  bool decoded = false;
  switch (tag) {
    case 0:
      if (auto g = decode_guard_patch(wire)) {
        c.fix = std::move(*g);
        decoded = true;
      }
      break;
    case 1:
      if (auto cg = decode_crash_guard(wire)) {
        c.fix = std::move(*cg);
        decoded = true;
      }
      break;
    default:
      if (auto lf = decode_lock_fix(wire)) {
        c.fix = std::move(*lf);
        decoded = true;
      }
      break;
  }
  if (!decoded) {
    r.fail();  // the embedded wire record failed its protocol decoder
    return false;
  }
  c.bug = BugId(r.u64());
  c.program = ProgramId(r.u64());
  const std::uint64_t n_bounds = r.count(3);
  c.region_hint.clear();
  c.region_hint.reserve(n_bounds);
  for (std::uint64_t i = 0; i < n_bounds && r.ok(); ++i) {
    InputBound b;
    b.input = static_cast<std::uint16_t>(r.u64_max(0xffff));
    b.lo = r.i64();
    b.hi = r.i64();
    if (b.lo > b.hi) r.fail();
    c.region_hint.push_back(b);
  }
  c.averted_fraction = r.f64();
  c.preserved_fraction = r.f64();
  c.validation_runs = r.u64();
  r.str(c.rationale);
  return r.ok();
}

}  // namespace softborg
