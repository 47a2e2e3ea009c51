// Cumulative proofs (paper §3.3): "a complete exploration of all paths
// leads to a proof, while a test is just a weaker proof".
//
// The ProofEngine combines the two ends of that spectrum:
//   * naturally-occurring executions already merged into the collective
//     execution tree (each guaranteed feasible, no solving needed), and
//   * symbolic gap closure: for every frontier (observed node with an
//     unexplored direction) the engine asks the solver whether that
//     direction is feasible at all — infeasible directions are closed with
//     an UNSAT certificate, feasible ones are explored symbolically and
//     their paths added to the tree (counted separately).
//
// When the tree becomes complete, the engine issues a ProofCertificate: the
// property holds on EVERY feasible path of P over the stated input domain.
// Certificates are independently checkable: for bounded domains the checker
// re-executes the program exhaustively (or on a dense sample) and confirms
// both the property and the path census.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/state_wire.h"
#include "minivm/corpus.h"
#include "sym/executor.h"
#include "tree/exec_tree.h"

namespace softborg {

enum class Property : std::uint8_t {
  kNeverCrashes = 0,
  kNeverDeadlocks = 1,
  kAlwaysTerminates = 2,  // no hangs within the step budget
};

const char* property_name(Property p);

struct ProofCertificate {
  ProofId id;
  ProgramId program;
  Property property = Property::kNeverCrashes;
  std::vector<VarDomain> input_domain;

  // Census of the completed tree.
  std::size_t paths_total = 0;
  std::size_t paths_from_executions = 0;  // observed in the wild
  std::size_t paths_from_symbolic = 0;    // added by gap closure
  std::size_t gaps_closed_infeasible = 0;

  bool complete = false;  // every direction observed or refuted
  bool holds = false;     // no counterexample path in the tree
  // How many gap-closure rounds saw more open directions than the frontier
  // budget could enumerate. Nonzero means the engine worked from a clipped
  // window of the frontier (correct but slower — later rounds revisit the
  // rest); it is the observability hook for tuning ProofBudget.
  std::size_t frontier_clips = 0;
  // When !holds: one counterexample (decision path + outcome).
  std::vector<SymDecision> counterexample;
  Outcome counterexample_outcome = Outcome::kOk;

  // Solver queries this attempt made, summed over every executor the
  // engine spawned.
  std::uint64_t solver_calls = 0;

  // The newest trace day the issuing hive had seen (Hive::attempt_proof).
  std::uint64_t day_issued = 0;

  // A certificate is publishable iff the tree was completed AND no
  // counterexample exists.
  bool publishable() const { return complete && holds; }

  std::string describe() const;

  bool operator==(const ProofCertificate&) const = default;
};

struct ProofBudget {
  std::size_t max_gap_closures = 10'000;
  std::size_t max_symbolic_paths = 100'000;
  // The unified solver budget, copied into every executor the engine
  // spawns (see SolverOptions in csolver.h for the precedence rules).
  SolverOptions solver;
  // Frontiers enumerated per gap-closure round. Enumeration is O(answer)
  // on the incremental tree, so this bounds solver work per round, not
  // tree-walk cost; ProofCertificate::frontier_clips records every round
  // where the tree held more open directions than this window.
  std::size_t frontier_budget = 64;

  static constexpr auto fields() {
    using C = ProofBudget;
    return std::tuple{field(&C::max_gap_closures),
                      field(&C::max_symbolic_paths), field(&C::solver),
                      field(&C::frontier_budget)};
  }
};

class ProofEngine {
 public:
  explicit ProofEngine(std::uint64_t next_proof_id = 1)
      : next_id_(next_proof_id) {}

  // Attempts a proof of `property` for the program over its full input
  // domain, extending `tree` in place (symbolic paths merged, infeasible
  // directions marked). Multi-threaded programs are rejected for
  // kNeverCrashes/kAlwaysTerminates (their decision trees are schedule-
  // woven) but kNeverDeadlocks can still be refuted from observations.
  ProofCertificate attempt(const CorpusEntry& entry, ExecTree& tree,
                           Property property, const ProofBudget& budget = {});

  // Durable-store save/restore: a resumed hive continues the saved id
  // sequence.
  std::uint64_t next_id() const { return next_id_; }
  void set_next_id(std::uint64_t id) { next_id_ = id; }

 private:
  std::uint64_t next_id_;
};

// Independent certificate checker: refuses a certificate that names
// another program or an input domain other than domains_of(entry), then
// exhaustively (or densely, bounded by max_checks) re-executes the program
// over that domain and verifies (a) the property indeed holds on every run
// and (b) the number of distinct decision paths does not exceed the census.
// Returns false with a reason on any discrepancy.
bool check_certificate(const CorpusEntry& entry, const ProofCertificate& cert,
                       std::uint64_t max_checks, std::string* reason);

// Durable-store codec: a resumed run's published-proof ledger round-trips
// exactly (operator== above). decode
// validates every enum tag and domain bound; false = reader failed.
void encode_certificate(Bytes& out, const ProofCertificate& cert);
bool decode_certificate(StateReader& r, ProofCertificate& cert);

}  // namespace softborg
