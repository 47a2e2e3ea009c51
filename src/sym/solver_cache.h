// Solver-result recycling cache (paper §3/§5: recycle execution by-products
// across the fleet — applied to the constraint solver).
//
// Across a day of proof gap closure the fleet issues thousands of
// solve_path() queries whose constraint sets are near-identical: every
// explore_subtree() re-derives the same path prefixes, and structurally
// equal branch conditions recur across programs built from the same
// templates. The cache canonicalizes each query and recycles decided
// results three ways, in lookup order:
//
//   1. Exact hit — the query's canonical form (clauses sorted and deduped,
//      variables renamed to first-occurrence order, per-variable domains
//      appended) maps to a cached decision. SAT hits rebuild the cached
//      witness in the query's variable space and re-verify it with
//      satisfies(), so they are sound even under key collision; UNSAT hits
//      rely on the 128-bit key (the ReplayCache key+check idiom).
//   2. UNSAT-core subsumption (KLEE's counterexample cache): a cached UNSAT
//      clause set that is a subset of the query's clauses proves the query
//      UNSAT — provided the query's domain box is contained in the cached
//      box for every variable the core references (an UNSAT fact about
//      x∈[0,10] says nothing about x∈[0,200]). Clause identity here is the
//      *raw* (un-renamed) literal hash: renaming is sound for whole-query
//      equality, where the domains ride along in the key, but not for
//      subset reasoning across different variable sets.
//   3. Model reuse: a cached satisfying assignment that happens to satisfy
//      the query's clauses — verified exactly with satisfies() and checked
//      against the query's domains — proves SAT with a free witness.
//
// kUnknown results are never cached: they are budget artifacts, not facts.
// Decided results are budget-independent, so a hit is exact regardless of
// the caller's SolverOptions; the only observable divergence from a fresh
// solve is returning a decision where the fresh solve would have exhausted
// its budget (strictly more complete).
//
// Witness caveat: SAT hits return *a* verified witness, not necessarily the
// witness a fresh solve would construct (model reuse and renamed exact hits
// translate another query's model). Consumers that only branch on the
// status (tree growth, certificates) are unaffected; consumers of the model
// get a different-but-valid point of the same box.
//
// Not thread-safe: one hive's proof attempts and guidance planning use it
// from one thread.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fields.h"
#include "common/state_wire.h"
#include "common/varint.h"
#include "sym/csolver.h"
#include "sym/expr.h"

namespace softborg {

struct SolverCacheConfig {
  // Exact-result entries kept before the table resets wholesale
  // (generational eviction, as in the hive's ReplayCache).
  std::size_t max_entries = 1 << 15;
  // UNSAT clause sets kept for subsumption (FIFO).
  std::size_t max_unsat_cores = 512;
  // Satisfying assignments kept for model reuse (FIFO)...
  std::size_t max_models = 64;
  // ...of which only the most recent `model_probe_limit` are tried per
  // query (each probe costs one satisfies() evaluation).
  std::size_t model_probe_limit = 8;

  bool operator==(const SolverCacheConfig&) const = default;

  static constexpr auto fields() {
    using C = SolverCacheConfig;
    return std::tuple{field(&C::max_entries), field(&C::max_unsat_cores),
                      field(&C::max_models), field(&C::model_probe_limit)};
  }
};

// How a query was answered.
enum class CacheLookup : std::uint8_t {
  kMiss = 0,           // fresh solve_path call
  kExactHit = 1,       // canonical key present
  kUnsatSubsumed = 2,  // cached UNSAT subset + domain containment
  kModelReused = 3,    // cached assignment satisfies the query
};

const char* cache_lookup_name(CacheLookup l);

struct SolverCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t unsat_subsumed = 0;
  std::uint64_t models_reused = 0;
  std::uint64_t insertions = 0;  // decided results cached
  std::uint64_t resets = 0;      // generational evictions of the exact table

  std::uint64_t hits() const {
    return exact_hits + unsat_subsumed + models_reused;
  }
  double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits()) / static_cast<double>(lookups);
  }

  static constexpr auto fields() {
    using S = SolverCacheStats;
    return std::tuple{field(&S::lookups), field(&S::exact_hits),
                      field(&S::unsat_subsumed), field(&S::models_reused),
                      field(&S::insertions), field(&S::resets)};
  }
};

class SolverCache {
 public:
  explicit SolverCache(SolverCacheConfig config = {});

  // Cache-through replacement for solve_path(): identical contract, plus
  // `outcome` (when non-null) reports how the query was answered. Hits
  // report SolveResult::nodes == 0 (no solver work done).
  SolveResult solve(const PathConstraint& pc,
                    const std::vector<VarDomain>& input_domains,
                    const std::vector<VarDomain>& unknown_domains = {},
                    const SolverOptions& options = {},
                    CacheLookup* outcome = nullptr);

  // Deterministic union: adopts every entry of `other` this cache lacks, in
  // `other`'s storage order (exact slots by index, rings front to back).
  // Contents only — `other`'s counters describe its own traffic and are not
  // added. Seeds one hive's cache with results another hive accumulated.
  void merge_from(const SolverCache& other);

  std::size_t size() const { return exact_count_; }
  const SolverCacheStats& stats() const { return stats_; }
  const SolverCacheConfig& config() const { return config_; }

  // Durable-store serialization. The exact table is dumped slot-for-slot
  // (occupied slots with their indices) so the restored probe layout — and
  // therefore every future lookup/insert path — is byte-identical to the
  // saved cache's, across generational resets included. Counters (`resets`,
  // hits, insertions) round-trip exactly: ProofCertificates embed them.
  // load_state requires the receiving cache to be configured identically
  // (the snapshot records the config and rejects a mismatch) and validates
  // every index, status tag, and model reference; false means corrupt.
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);

  // Exact structural equality of config, stats, and all four stores —
  // the round-trip pin for the serializer (ISSUE 7 satellite).
  bool state_equals(const SolverCache& other) const;

 private:
  struct Hash128 {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    friend auto operator<=>(const Hash128&, const Hash128&) = default;
  };

  // A referenced variable with the query's domain for it.
  struct VarBox {
    std::uint8_t kind = 0;  // 0 = input, 1 = syscall unknown
    std::uint32_t index = 0;
    Value lo = 0;
    Value hi = 0;
    friend auto operator<=>(const VarBox&, const VarBox&) = default;
  };

  struct CanonicalQuery {
    std::vector<Hash128> lits;  // raw literal hashes, sorted, deduped
    std::uint64_t lit_mask = 0; // 1-word signature of `lits` (prefilter)
    std::vector<VarBox> vars;   // referenced vars + domains, sorted
    Hash128 key;                // canonical (renamed + domains) 128-bit key
    // Canonical id -> raw index, per kind (model translation).
    std::vector<std::uint32_t> input_raw;
    std::vector<std::uint32_t> unknown_raw;
  };

  // Canonical-space witness stored with exact SAT entries: inputs[i] is the
  // value of canonical input i, so a renamed twin query can translate it.
  struct CanonModel {
    std::vector<Value> inputs;
    std::vector<Value> unknowns;
    bool operator==(const CanonModel&) const = default;
  };

  static constexpr std::uint32_t kNoModel = 0xffffffffu;
  struct ExactSlot {
    std::uint64_t key = 0;    // Hash128::a; 0 marks an empty slot
    std::uint64_t check = 0;  // Hash128::b
    SolveStatus status = SolveStatus::kUnknown;
    std::uint32_t model = kNoModel;  // into canon_models_ iff kSat

    bool operator==(const ExactSlot&) const = default;
  };

  struct UnsatCore {
    std::vector<Hash128> lits;  // sorted raw literal hashes
    std::uint64_t lit_mask = 0;
    std::vector<VarBox> vars;   // domains the UNSAT proof covered
    bool operator==(const UnsatCore&) const = default;
  };

  // Two independently-seeded 64-bit hashes (FNV-1a and a multiply-xor
  // chain), both finalized with the splitmix avalanche: the pair is the
  // query key, so collision resistance has to come from genuinely
  // decorrelated passes.
  static Hash128 hash128(const Bytes& buf);

  void canonicalize(const PathConstraint& pc,
                    const std::vector<VarDomain>& input_domains,
                    const std::vector<VarDomain>& unknown_domains,
                    CanonicalQuery& q);
  // Serializes one literal pre-order with DAG backrefs. With `canon` the
  // variable indices are substituted through canon_map_; without it raw
  // indices are emitted and every variable emission is appended to
  // var_emissions_.
  void serialize_literal(const Literal& lit, bool canon, Bytes& out);

  const ExactSlot* find_exact(const Hash128& key) const;
  void insert_exact(const Hash128& key, SolveStatus status,
                    std::uint32_t model_index);
  // Rebuilds a cached canonical witness in the query's variable space and
  // verifies it (domains + satisfies). False on any mismatch.
  bool rebuild_model(const CanonicalQuery& q, const CanonModel& cm,
                     const PathConstraint& pc,
                     const std::vector<VarDomain>& input_domains,
                     const std::vector<VarDomain>& unknown_domains,
                     Assignment& out) const;
  bool subsumed_unsat(const CanonicalQuery& q) const;
  // Tries the most recent cached assignments against the query; fills `out`
  // with a full-size verified witness on success.
  bool reuse_model(const CanonicalQuery& q, const PathConstraint& pc,
                   const std::vector<VarDomain>& input_domains,
                   const std::vector<VarDomain>& unknown_domains,
                   Assignment& out) const;
  // Caches a decided fresh result (exact entry + the matching ring).
  void insert_result(const CanonicalQuery& q, const SolveResult& r);
  std::uint32_t store_canon_model(const CanonicalQuery& q,
                                  const Assignment& model);

  SolverCacheConfig config_;
  SolverCacheStats stats_;

  // Exact table: open-addressed, power-of-two sized, insert-only between
  // generational resets.
  std::vector<ExactSlot> exact_;
  std::size_t exact_count_ = 0;
  std::vector<CanonModel> canon_models_;  // referenced by exact_ slots

  std::vector<UnsatCore> unsat_cores_;  // FIFO
  std::vector<Assignment> models_;      // FIFO, raw variable space

  // Scratch for canonicalize()/serialize_literal(), reused across queries.
  CanonicalQuery query_;
  Bytes buf_;
  std::unordered_map<const ExprNode*, std::uint32_t> memo_;
  std::vector<const ExprNode*> stack_;
  std::unordered_map<std::uint64_t, std::uint32_t> canon_map_;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> var_emissions_;
  std::vector<std::pair<std::size_t, std::size_t>> lit_var_ranges_;
};

}  // namespace softborg
