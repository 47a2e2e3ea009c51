#include "hive/proof.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/log.h"
#include "minivm/decode.h"
#include "minivm/interp.h"
#include "minivm/replay.h"

namespace softborg {

const char* property_name(Property p) {
  switch (p) {
    case Property::kNeverCrashes: return "never-crashes";
    case Property::kNeverDeadlocks: return "never-deadlocks";
    case Property::kAlwaysTerminates: return "always-terminates";
  }
  return "?";
}

std::string ProofCertificate::describe() const {
  std::string s = std::string(property_name(property)) + " for program " +
                  std::to_string(program.value) + ": ";
  if (publishable()) {
    s += "PROVEN over " + std::to_string(paths_total) + " paths (" +
         std::to_string(paths_from_executions) + " observed, " +
         std::to_string(paths_from_symbolic) + " symbolic, " +
         std::to_string(gaps_closed_infeasible) + " refuted gaps)";
  } else if (!holds) {
    s += "REFUTED (counterexample with " +
         std::to_string(counterexample.size()) + " decisions)";
  } else {
    s += "INCOMPLETE (" + std::to_string(paths_total) + " paths so far)";
  }
  return s;
}

namespace {

bool outcome_violates(Property property, Outcome outcome) {
  switch (property) {
    case Property::kNeverCrashes:
      return outcome == Outcome::kCrash;
    case Property::kNeverDeadlocks:
      return outcome == Outcome::kDeadlock;
    case Property::kAlwaysTerminates:
      return outcome == Outcome::kHang || outcome == Outcome::kUserKilled ||
             outcome == Outcome::kDeadlock;
  }
  return false;
}

Outcome outcome_of_terminal(PathTerminal t) {
  switch (t) {
    case PathTerminal::kOk:
      return Outcome::kOk;
    case PathTerminal::kCrash:
      return Outcome::kCrash;
    case PathTerminal::kDeadlock:
      return Outcome::kDeadlock;
    case PathTerminal::kBudget:
      return Outcome::kHang;
  }
  return Outcome::kOk;
}

}  // namespace

ProofCertificate ProofEngine::attempt(const CorpusEntry& entry,
                                      ExecTree& tree, Property property,
                                      const ProofBudget& budget,
                                      SolverCache* cache) {
  ProofCertificate cert;
  cert.id = ProofId(next_id_++);
  cert.program = entry.program.id;
  cert.property = property;
  cert.input_domain = domains_of(entry);
  cert.paths_from_executions = tree.num_paths();

  const bool single_threaded = entry.program.num_threads() == 1;
  bool bootstrap_cut_any = false;

  // Symbolic gap closure (single-threaded programs only).
  if (single_threaded) {
    ExploreOptions opt;
    opt.input_domains = cert.input_domain;
    opt.max_paths = budget.max_symbolic_paths;
    opt.solver = budget.solver;
    opt.solver_cache = cache;
    const auto account = [&cert](const ExploreStats& s) {
      cert.solver_calls += s.solver_calls;
      cert.solver_cache_hits += s.solver_cache_hits;
      cert.solver_unsat_subsumed += s.solver_unsat_subsumed;
      cert.solver_models_reused += s.solver_models_reused;
    };

    // Bootstrap: with no natural executions yet, the proof attempt is a
    // pure symbolic exploration (the "test suite" end of the spectrum is
    // empty; the prover supplies everything).
    bool bootstrap_cut = false;
    if (tree.num_paths() == 0) {
      SymbolicExecutor ex(entry.program, opt);
      for (const auto& p : ex.explore()) {
        const auto r = tree.add_path(
            p.decisions, outcome_of_terminal(p.terminal), p.crash);
        if (r.new_path) cert.paths_from_symbolic++;
      }
      account(ex.stats());
      // If exploration was cut, completion cannot be claimed; the property
      // check below still reports refutations found so far.
      bootstrap_cut = !ex.stats().complete;
      bootstrap_cut_any = bootstrap_cut;
    }

    std::size_t closures = 0;
    for (;;) {
      const auto frontiers = tree.frontier(budget.frontier_budget);
      if (tree.open_frontiers() > frontiers.size()) cert.frontier_clips++;
      if (frontiers.empty()) break;
      bool progress = false;
      for (const auto& f : frontiers) {
        if (closures >= budget.max_gap_closures) break;
        closures++;

        std::vector<SymDecision> target = f.prefix;
        target.push_back({f.site, f.direction});

        SymbolicExecutor ex(entry.program, opt);
        const auto paths = ex.explore_subtree(target);
        account(ex.stats());
        if (paths.empty() && ex.stats().complete) {
          // Direction refuted: no feasible execution goes that way.
          if (tree.mark_infeasible(f.prefix, f.site, f.direction, f.node)) {
            cert.gaps_closed_infeasible++;
            progress = true;
          }
          continue;
        }
        for (const auto& p : paths) {
          const auto r = tree.add_path(p.decisions,
                                       outcome_of_terminal(p.terminal),
                                       p.crash);
          if (r.new_path) {
            cert.paths_from_symbolic++;
            progress = true;
          }
        }
        if (!ex.stats().complete) {
          SB_LOG_DEBUG("gap closure at site %u hit budget", f.site);
        }
      }
      if (!progress || closures >= budget.max_gap_closures) break;
    }
  }

  cert.paths_total = tree.num_paths();
  cert.complete = single_threaded ? tree.complete() : false;
  if (bootstrap_cut_any) cert.complete = false;

  // Property check over all leaves we know about.
  cert.holds = true;
  for (Outcome o : {Outcome::kCrash, Outcome::kDeadlock, Outcome::kHang,
                    Outcome::kUserKilled}) {
    if (outcome_violates(property, o) && tree.paths_with_outcome(o) > 0) {
      cert.holds = false;
      cert.counterexample_outcome = o;
      if (auto path = tree.find_path_with_outcome(o)) {
        cert.counterexample = std::move(*path);
      }
    }
  }
  // For multi-threaded programs, refutation is still meaningful even though
  // completion is not claimed.
  return cert;
}

bool check_certificate(const CorpusEntry& entry, const ProofCertificate& cert,
                       std::uint64_t max_checks, std::string* reason) {
  auto fail = [&](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (!cert.publishable()) return fail("certificate is not publishable");
  if (entry.program.num_threads() != 1) {
    return fail("checker supports single-threaded programs only");
  }

  // Enumerate the input domain (row-major), bounded by max_checks: if the
  // domain is larger, stride evenly — a dense audit rather than exhaustive.
  __int128 combos = 1;
  for (const auto& d : cert.input_domain) {
    combos *= (static_cast<__int128>(d.hi) - d.lo + 1);
    if (combos > 100'000'000) break;  // avoid overflow; stride handles it
  }
  const std::uint64_t total =
      combos > static_cast<__int128>(UINT64_MAX)
          ? UINT64_MAX
          : static_cast<std::uint64_t>(combos);
  const std::uint64_t stride =
      total > max_checks ? (total + max_checks - 1) / max_checks : 1;

  const auto decoded = predecode_cached(entry.program, nullptr);
  std::set<std::uint64_t> distinct_paths;
  for (std::uint64_t index = 0; index < total; index += stride) {
    // Decode row-major index into concrete inputs.
    std::vector<Value> inputs;
    std::uint64_t rest = index;
    for (const auto& d : cert.input_domain) {
      const std::uint64_t width =
          static_cast<std::uint64_t>(d.hi - d.lo + 1);
      inputs.push_back(d.lo + static_cast<Value>(rest % width));
      rest /= width;
    }
    ExecConfig cfg;
    cfg.inputs = std::move(inputs);
    const auto result = execute(entry.program, *decoded, cfg);
    if (outcome_violates(cert.property, result.trace.outcome)) {
      return fail("counterexample at input index " + std::to_string(index));
    }
    distinct_paths.insert(result.trace.branch_bits.hash());
  }

  if (stride == 1 && distinct_paths.size() > cert.paths_total) {
    return fail("observed " + std::to_string(distinct_paths.size()) +
                " distinct paths but certificate claims " +
                std::to_string(cert.paths_total));
  }
  return true;
}

void encode_certificate(Bytes& out, const ProofCertificate& cert) {
  put_varint(out, cert.id.value);
  put_varint(out, cert.program.value);
  put_varint(out, static_cast<std::uint64_t>(cert.property));
  put_varint(out, cert.input_domain.size());
  for (const VarDomain& d : cert.input_domain) {
    put_varint_signed(out, d.lo);
    put_varint_signed(out, d.hi);
  }
  put_varint(out, cert.paths_total);
  put_varint(out, cert.paths_from_executions);
  put_varint(out, cert.paths_from_symbolic);
  put_varint(out, cert.gaps_closed_infeasible);
  put_bool(out, cert.complete);
  put_bool(out, cert.holds);
  put_varint(out, cert.frontier_clips);
  put_varint(out, cert.counterexample.size());
  for (const SymDecision& d : cert.counterexample) {
    put_varint(out, d.site);
    put_bool(out, d.taken);
  }
  put_varint(out, static_cast<std::uint64_t>(cert.counterexample_outcome));
  put_varint(out, cert.solver_calls);
  put_varint(out, cert.solver_cache_hits);
  put_varint(out, cert.solver_unsat_subsumed);
  put_varint(out, cert.solver_models_reused);
  put_varint(out, cert.day_issued);
}

bool decode_certificate(StateReader& r, ProofCertificate& cert) {
  cert.id = ProofId(r.u64());
  cert.program = ProgramId(r.u64());
  cert.property = static_cast<Property>(r.u64_max(2));
  const std::uint64_t n_domains = r.count(2);
  cert.input_domain.clear();
  cert.input_domain.reserve(n_domains);
  for (std::uint64_t i = 0; i < n_domains && r.ok(); ++i) {
    VarDomain d;
    d.lo = r.i64();
    d.hi = r.i64();
    if (d.lo > d.hi) r.fail();
    cert.input_domain.push_back(d);
  }
  cert.paths_total = r.u64();
  cert.paths_from_executions = r.u64();
  cert.paths_from_symbolic = r.u64();
  cert.gaps_closed_infeasible = r.u64();
  cert.complete = r.boolean();
  cert.holds = r.boolean();
  cert.frontier_clips = r.u64();
  const std::uint64_t n_cex = r.count(2);
  cert.counterexample.clear();
  cert.counterexample.reserve(n_cex);
  for (std::uint64_t i = 0; i < n_cex && r.ok(); ++i) {
    SymDecision d;
    d.site = r.u32();
    d.taken = r.boolean();
    cert.counterexample.push_back(d);
  }
  cert.counterexample_outcome = static_cast<Outcome>(r.u64_max(4));
  cert.solver_calls = r.u64();
  cert.solver_cache_hits = r.u64();
  cert.solver_unsat_subsumed = r.u64();
  cert.solver_models_reused = r.u64();
  cert.day_issued = r.u64();
  return r.ok();
}

}  // namespace softborg
