// BM_ProofClosure — solver-result recycling in proof gap closure on the
// 64x64 fleet workload (paper §3.3: cumulative proofs; §2: the hive
// recycles the fleet's redundant work instead of re-deriving it).
//
// Each iteration stands up a fresh hive, batch-ingests a day of fleet
// traffic (64 endpoints x 64 runs — the same workload as part 3 of
// bench_e6_recording_overhead), and then attempts a cumulative proof for
// every corpus program (Hive::attempt_proofs_all). Only the proof sweep is
// timed; ingestion is setup. Legs, encoded as Arg(cache_mode):
//
//   0 — no cache: every feasibility query runs the solver.
//   1 — cold cache: recycling within and across the sweep's attempts,
//       starting empty.
//   2 — warm cache: the hive is seeded (merge_from) with the cache a
//       previous identical sweep accumulated — the steady state of a
//       long-lived hive re-proving its fleet. The warm/cold wall-clock
//       ratio is the recycling payoff.
//
// Counters report solver_calls, the recycled fraction, and proofs issued;
// methodology and measured numbers live in EXPERIMENTS.md ("BM_ProofClosure").
#include <benchmark/benchmark.h>

#include "bench_json_gbench.h"
#include "core/softborg.h"

namespace softborg {
namespace {

constexpr Property kProperty = Property::kNeverCrashes;

// A solver-heavy corpus member: `kStages` nonlinear guards over a wide 2-D
// input box. Each guard's boundary (x-a)(y-c)(x-a2) < bound is a cubic
// surface, so the interval solver has to split the box down to the boundary
// to decide a frontier — feasibility queries cost thousands of
// branch-and-prune nodes, the regime where re-deriving answers dwarfs
// recycling them. Constants vary per variant so distinct programs share no
// queries.
CorpusEntry make_constraint_gauntlet(unsigned variant) {
  ProgramBuilder b("gauntlet_" + std::to_string(variant), 9000 + variant);
  const Reg x = b.reg(), y = b.reg(), t = b.reg(), u = b.reg();
  const Reg acc = b.reg(), bit = b.reg();
  const std::uint32_t in_x = b.input_slot(), in_y = b.input_slot();
  b.input(x, in_x);
  b.input(y, in_y);
  b.const_(acc, 0);
  constexpr unsigned kStages = 5;
  for (unsigned j = 0; j < kStages; ++j) {
    auto L_on = b.label(), L_off = b.label();
    const Value a = 150 + 311 * j + 97 * static_cast<Value>(variant);
    const Value c = 1800 - 259 * j + 53 * static_cast<Value>(variant);
    const Value a2 = 4100 - 503 * j + 131 * static_cast<Value>(variant);
    const Value bound = 900'000 + 170'000 * j;
    b.add_const(t, x, -a);
    b.add_const(u, y, -c);
    b.mul(t, t, u);
    b.add_const(u, x, -a2);
    b.mul(t, t, u);
    b.cmp_lt_const(u, t, bound);
    b.branch_if(u, L_on, L_off);
    b.bind(L_on);
    b.const_(bit, static_cast<Value>(1) << j);
    b.add(acc, acc, bit);
    b.jump(L_off);
    b.bind(L_off);
  }
  b.output(acc);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description = "nonlinear guard gauntlet (solver-heavy proofs)";
  e.domains = {{0, 6000}, {0, 6000}};
  return e;
}

// The proof fleet: the standard corpus plus eight gauntlets, so the sweep
// mixes cheap symbolic programs with ones whose gap closure is dominated by
// solver time.
const std::vector<CorpusEntry>& bench_corpus() {
  static const std::vector<CorpusEntry> corpus = [] {
    std::vector<CorpusEntry> out = standard_corpus();
    for (unsigned v = 0; v < 8; ++v) out.push_back(make_constraint_gauntlet(v));
    return out;
  }();
  return corpus;
}

// A day of fleet traffic: 64 endpoints x 64 runs. Each endpoint re-runs one
// program on fixed inputs with fresh scheduler seeds — the paper's
// redundancy model, where many endpoints keep re-walking a small set of
// paths. Unique trace ids keep dedup out of the way.
const std::vector<Bytes>& fleet_workload() {
  static const std::vector<Bytes> wires = [] {
    const auto& corpus = bench_corpus();
    Rng rng(29);
    std::vector<Bytes> out;
    out.reserve(64 * 64);
    for (std::size_t endpoint = 0; endpoint < 64; ++endpoint) {
      const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
      ExecConfig cfg;
      for (const auto& d : entry.domains) {
        cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
      }
      for (std::size_t run = 0; run < 64; ++run) {
        cfg.seed = endpoint * 64 + run + 1;
        auto result = execute(entry.program, cfg);
        result.trace.id = TraceId(endpoint * 64 + run + 1);
        out.push_back(encode_trace(result.trace));
      }
    }
    return out;
  }();
  return wires;
}

HiveConfig closure_config(int cache_mode) {
  HiveConfig config;
  config.solver_cache = cache_mode != 0;
  return config;
}

// The donor for the warm legs: the solver cache left behind by one complete
// cold-cache sweep over identically-ingested trees.
const SolverCache& donor_cache() {
  static const SolverCache cache = [] {
    Hive hive(&bench_corpus(), closure_config(1));
    hive.ingest_batch(fleet_workload());
    hive.attempt_proofs_all(kProperty);
    return hive.solver_cache();
  }();
  return cache;
}

void BM_ProofClosure(benchmark::State& state) {
  const std::vector<CorpusEntry>& corpus = bench_corpus();
  const int cache_mode = static_cast<int>(state.range(0));
  if (cache_mode == 2) donor_cache();  // build outside the timed region

  std::size_t proofs = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t recycled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Hive hive(&corpus, closure_config(cache_mode));
    hive.ingest_batch(fleet_workload());
    if (cache_mode == 2) hive.solver_cache().merge_from(donor_cache());
    state.ResumeTiming();

    const auto certs = hive.attempt_proofs_all(kProperty);

    state.PauseTiming();
    benchmark::DoNotOptimize(certs.size());
    proofs = hive.valid_proof_count();
    solver_calls = hive.proof_stats().solver_calls;
    recycled = hive.proof_stats().recycled();
    state.ResumeTiming();
  }
  state.counters["proofs"] = static_cast<double>(proofs);
  state.counters["solver_calls"] = static_cast<double>(solver_calls);
  state.counters["recycled"] = static_cast<double>(recycled);
  state.counters["recycle_rate"] =
      solver_calls == 0
          ? 0.0
          : static_cast<double>(recycled) / static_cast<double>(solver_calls);
}
BENCHMARK(BM_ProofClosure)
    ->Arg(0)  // no cache — the pre-recycling baseline
    ->Arg(1)  // cold cache
    ->Arg(2)  // warm cache — steady-state recycling
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace softborg

int main(int argc, char** argv) {
  softborg::BenchJsonWriter json("proof_closure", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  softborg::JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write() ? 0 : 1;
}
