// Differential tests for proof gap closure: the attempt_proofs_all sweep
// must equal a plain loop of attempt_proof calls — certificates, trees,
// closure telemetry and the solver cache alike — and the solver-result
// recycling cache must be invisible outside the telemetry.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/softborg.h"
#include "tree/tree_codec.h"

namespace softborg {
namespace {

constexpr Property kProperty = Property::kNeverCrashes;

// Executes random corpus programs on random in-domain inputs and returns
// the encoded by-products, ids 1..n (unique, so dedup passes every wire).
std::vector<Bytes> make_workload(const std::vector<CorpusEntry>& corpus,
                                 std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> wires;
  wires.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
    ExecConfig cfg;
    for (const auto& d : entry.domains) {
      cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    cfg.seed = seed * 1'000'000 + i;
    auto result = execute(entry.program, cfg);
    result.trace.id = TraceId(i + 1);
    wires.push_back(encode_trace(result.trace));
  }
  return wires;
}

struct ClosureResult {
  std::vector<ProofCertificate> certs;
  std::map<std::uint64_t, Bytes> trees;  // program id -> encoded tree
  Hive::ProofClosureStats stats;
  std::size_t valid_proofs = 0;
  std::size_t cache_size = 0;
  Bytes cache_state;  // SolverCache::save_state, slot-exact
};

// Snapshots everything of a hive a proof-closure divergence could show up
// in, given the certificates its sweep returned.
ClosureResult snapshot(Hive& hive, const std::vector<CorpusEntry>& corpus,
                       std::vector<ProofCertificate> certs) {
  ClosureResult out;
  out.certs = std::move(certs);
  for (const auto& entry : corpus) {
    if (ExecTree* t = hive.tree(entry.program.id)) {
      out.trees[entry.program.id.value] = encode_tree(*t);
    }
  }
  out.stats = hive.proof_stats();
  out.valid_proofs = hive.valid_proof_count();
  out.cache_size = hive.solver_cache().size();
  hive.solver_cache().save_state(out.cache_state);
  return out;
}

// One hive lifecycle: batch-ingest the workload, then run the full-corpus
// proof sweep with or without the solver cache.
ClosureResult run_closure(const std::vector<CorpusEntry>& corpus,
                          const std::vector<Bytes>& wires, bool cache) {
  HiveConfig config;
  config.solver_cache = cache;
  Hive hive(&corpus, config);
  hive.ingest_batch(wires);
  auto certs = hive.attempt_proofs_all(kProperty);
  return snapshot(hive, corpus, std::move(certs));
}

void expect_identical(const ClosureResult& a, const ClosureResult& b) {
  ASSERT_EQ(a.certs.size(), b.certs.size());
  for (std::size_t i = 0; i < a.certs.size(); ++i) {
    EXPECT_TRUE(a.certs[i] == b.certs[i]) << "certificate " << i << " ("
                                          << a.certs[i].describe() << " vs "
                                          << b.certs[i].describe() << ")";
  }
  EXPECT_EQ(a.trees, b.trees);  // byte-identical wire encodings
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.valid_proofs, b.valid_proofs);
  EXPECT_EQ(a.cache_size, b.cache_size);
  EXPECT_EQ(a.cache_state, b.cache_state);
}

// Certificates with the attempt-local solver telemetry scrubbed: the
// semantic payload (census, completeness, verdict, counterexample) that
// must not depend on whether a cache answered the queries.
ProofCertificate scrub_solver_counters(ProofCertificate c) {
  c.solver_calls = 0;
  c.solver_cache_hits = 0;
  c.solver_unsat_subsumed = 0;
  c.solver_models_reused = 0;
  return c;
}

// The sweep is a plain loop of attempt_proof calls: with the cache on, each
// attempt recycles what the earlier attempts cached, so the match is exact —
// solver telemetry and the cache itself included.
TEST(ProofParallel, SweepMatchesSerialAttemptLoop) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200, 11);
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache);
    HiveConfig config;
    config.solver_cache = cache;
    Hive loop_hive(&corpus, config);
    loop_hive.ingest_batch(wires);
    std::vector<ProofCertificate> loop_certs;
    for (const auto& entry : corpus) {
      loop_certs.push_back(
          loop_hive.attempt_proof(entry.program.id, kProperty));
    }
    const ClosureResult loop =
        snapshot(loop_hive, corpus, std::move(loop_certs));

    const ClosureResult sweep = run_closure(corpus, wires, cache);
    ASSERT_EQ(sweep.certs.size(), corpus.size());
    expect_identical(loop, sweep);
    EXPECT_GT(sweep.valid_proofs, 0u);
    if (cache) {
      EXPECT_GT(sweep.stats.recycled(), 0u);
    } else {
      EXPECT_EQ(sweep.stats.recycled(), 0u);
      EXPECT_EQ(sweep.cache_size, 0u);
    }
  }
}

// Recycling must be invisible outside the telemetry: same verdicts, same
// census, same trees, same published proofs with the cache on or off. (The
// only divergence the cache is allowed — deciding a query a fresh solve
// would give up on — cannot occur here: the default budget decides every
// query of this corpus.)
TEST(ProofParallel, CacheOnMatchesCacheOffSemantics) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200, 11);
  const ClosureResult off = run_closure(corpus, wires, false);
  const ClosureResult on = run_closure(corpus, wires, true);

  ASSERT_EQ(on.certs.size(), off.certs.size());
  for (std::size_t i = 0; i < on.certs.size(); ++i) {
    EXPECT_TRUE(scrub_solver_counters(on.certs[i]) ==
                scrub_solver_counters(off.certs[i]))
        << "certificate " << i;
    // Total query count is cache-independent; only who answers differs.
    EXPECT_EQ(on.certs[i].solver_calls, off.certs[i].solver_calls);
  }
  EXPECT_EQ(on.trees, off.trees);
  EXPECT_EQ(on.valid_proofs, off.valid_proofs);
}

// Publishable certificates from the cached sweep survive the independent
// checker (exhaustive re-execution over the input domain).
TEST(ProofParallel, CertificatesSurviveIndependentCheck) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200, 11);

  Hive hive(&corpus);
  hive.ingest_batch(wires);
  const auto certs = hive.attempt_proofs_all(kProperty);

  std::size_t checked = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!certs[i].publishable()) continue;
    std::string reason;
    EXPECT_TRUE(check_certificate(corpus[i], certs[i], 20'000, &reason))
        << corpus[i].program.name << ": " << reason;
    checked++;
  }
  EXPECT_GT(checked, 0u);
}

// End to end through the world loop: daily rotating proof slices with the
// cached closure leave the simulation bit-reproducible, and the day series
// actually reports closure progress.
TEST(ProofParallel, WorldDailyClosureIsDeterministic) {
  const auto run_world = [] {
    WorldConfig config;
    config.pods_per_program = 2;
    config.days = 4;
    config.proof_programs_per_day = 3;
    World world(standard_corpus(), config);
    world.run();
    return world;
  };

  World a = run_world();
  World b = run_world();
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t d = 0; d < a.history().size(); ++d) {
    const DayMetrics& ma = a.history()[d];
    const DayMetrics& mb = b.history()[d];
    EXPECT_EQ(ma.proofs_valid_total, mb.proofs_valid_total) << "day " << d;
    EXPECT_EQ(ma.proof_solver_calls_total, mb.proof_solver_calls_total)
        << "day " << d;
    EXPECT_EQ(ma.proof_solver_recycled_total, mb.proof_solver_recycled_total)
        << "day " << d;
    EXPECT_EQ(ma.failures, mb.failures) << "day " << d;
    EXPECT_EQ(ma.total_paths, mb.total_paths) << "day " << d;
  }
  EXPECT_TRUE(a.hive().proof_stats() == b.hive().proof_stats());
  EXPECT_EQ(a.hive().valid_proof_count(), b.hive().valid_proof_count());
  // The rotating slice must have recycled something by day 4.
  EXPECT_GT(a.history().back().proof_solver_recycled_total, 0u);
  EXPECT_GT(a.history().back().proofs_valid_total, 0u);
}

}  // namespace
}  // namespace softborg
