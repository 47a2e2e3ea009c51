// Fix synthesis and validation (paper §3.3 "synthesizes fixes that improve
// P" and the "repair lab" for fixes that need a human).
//
// Pipeline per bug:
//  1. Candidate generation.
//     * crash bugs: replay the exemplar trace into its decision stream,
//       derive the crash path constraint symbolically, and project it onto
//       the inputs (interval hull). If the constraint is input-determined,
//       emit a GuardPatch at the last input-dependent branch of the crash
//       path, guarded by the hull predicate. Always also emit a
//       CrashGuardFix at the faulting pc (covers env/syscall-determined
//       crashes, ClearView-style [24]).
//     * deadlock bugs: a LockAvoidanceFix over the diagnosed cycle [16].
//  2. Validation: run the program many times with the candidate installed —
//     (a) over the crash region (must no longer fail), (b) over the whole
//     input domain (no new failures; unpatched runs byte-identical).
//  3. Verdict: candidates scoring >= auto_threshold are auto-distributed;
//     the rest are queued for the repair lab (paper: "developers manually
//     choose the correct one").
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "common/fields.h"
#include "common/state_wire.h"
#include "hive/bugs.h"
#include "minivm/corpus.h"
#include "minivm/fixes.h"
#include "sym/executor.h"

namespace softborg {

using FixVariant = std::variant<GuardPatch, CrashGuardFix, LockAvoidanceFix>;

struct FixCandidate {
  FixVariant fix;
  BugId bug;
  ProgramId program;
  // Where the failure lives in input space (from the symbolic crash-path
  // hull, when known); validation samples this region.
  std::vector<InputBound> region_hint;
  // Validation results.
  double averted_fraction = 0.0;     // failing region now passes
  double preserved_fraction = 0.0;   // healthy runs unchanged
  std::uint64_t validation_runs = 0;
  std::string rationale;

  double score() const { return averted_fraction * preserved_fraction; }

  bool operator==(const FixCandidate&) const = default;
};

// Durable-store codec for fix candidates (pending rollouts, the repair
// lab). The embedded fix rides as a validated protocol wire record; decode
// returns false (reader failed) on any malformed field.
void encode_fix_candidate(Bytes& out, const FixCandidate& c);
bool decode_fix_candidate(StateReader& r, FixCandidate& c);

struct FixerConfig {
  std::uint64_t next_fix_id = 1;
  std::size_t validation_runs_region = 60;   // runs inside the crash region
  std::size_t validation_runs_domain = 120;  // runs across the whole domain
  std::uint64_t seed = 0xF1F1;

  static constexpr auto fields() {
    using C = FixerConfig;
    return std::tuple{field(&C::next_fix_id), field(&C::validation_runs_region),
                      field(&C::validation_runs_domain), field(&C::seed)};
  }
};

class FixSynthesizer {
 public:
  explicit FixSynthesizer(FixerConfig config = {}) : config_(config) {}

  // Generates and validates candidates for `bug`, best score first.
  std::vector<FixCandidate> synthesize(const Bug& bug,
                                       const CorpusEntry& entry);

  // Fix-id counter persistence: a resumed hive must keep issuing ids where
  // the saved run stopped, or new fixes would collide with installed ones.
  std::uint64_t next_fix_id() const { return config_.next_fix_id; }
  void set_next_fix_id(std::uint64_t id) { config_.next_fix_id = id; }

 private:
  FixId next_id() { return FixId(config_.next_fix_id++); }

  std::vector<FixCandidate> crash_candidates(const Bug& bug,
                                             const CorpusEntry& entry);
  std::vector<FixCandidate> deadlock_candidates(const Bug& bug,
                                                const CorpusEntry& entry);
  void validate(FixCandidate& candidate, const CorpusEntry& entry,
                const Bug& bug);

  FixerConfig config_;
};

// Repair lab: candidates that failed auto-validation, ranked for humans.
struct RepairLabEntry {
  FixCandidate candidate;
  std::string why_not_auto;
};

// Projects `constraints` onto each input variable by bisection: per input,
// one full-domain solve_path probe, then a binary search for the least and
// the greatest value a probe proves feasible (default solver budget). A
// probe that runs out of its node budget (kUnknown) counts as infeasible.
// So when every probe decides, each [lo, hi] is the tightest hull holding
// every satisfying assignment; when some probe runs out, the hull can be
// narrower than the real crash region (witnesses behind that probe are cut
// off), and a full-domain probe that runs out returns no hull at all.
// Inputs whose hull equals the full domain are omitted (unconstrained).
std::vector<InputBound> input_hull(const PathConstraint& constraints,
                                   const std::vector<VarDomain>& domains,
                                   const std::vector<VarDomain>& unknowns);

}  // namespace softborg
