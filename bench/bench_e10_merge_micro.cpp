// E10 — Microbenchmarks of the merge pipeline (paper §3.2, Fig. 3) and its
// supporting machinery: trace encode/decode, deterministic-branch replay,
// LCA tree merge, frontier enumeration, bit-vector primitives, and the
// bounded constraint solver.
//
// These establish that the hive-side per-trace cost is microseconds — the
// quantitative footing for "aggregate executions across the lifetime of a
// program" being a tractable volume of work.
#include <benchmark/benchmark.h>

#include "bench_json_gbench.h"

#include "core/softborg.h"

namespace softborg {
namespace {

Trace sample_trace(std::size_t bits, std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.id = TraceId(seed);
  t.program = ProgramId(1);
  t.pod = PodId(rng.next_below(1000));
  t.outcome = Outcome::kOk;
  for (std::size_t i = 0; i < bits; ++i) t.branch_bits.push_back(rng.next_bool());
  t.steps = bits * 10;
  return t;
}

void BM_TraceEncode(benchmark::State& state) {
  const Trace t = sample_trace(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_trace(t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEncode)->Arg(16)->Arg(256)->Arg(4096);

void BM_TraceDecode(benchmark::State& state) {
  const Bytes wire =
      encode_trace(sample_trace(static_cast<std::size_t>(state.range(0)), 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_trace(wire));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceDecode)->Arg(16)->Arg(256)->Arg(4096);

void BM_InterpreterRun(benchmark::State& state) {
  const auto entry = make_media_parser();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ExecConfig cfg;
    cfg.inputs = {static_cast<Value>(seed % 64),
                  static_cast<Value>(seed % 256)};
    cfg.seed = seed++;
    benchmark::DoNotOptimize(execute(entry.program, cfg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InterpreterRun);

void BM_Replay(benchmark::State& state) {
  const auto entry = make_media_parser();
  ExecConfig cfg;
  cfg.inputs = {20, 100};
  const auto live = execute(entry.program, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_trace(entry.program, live.trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Replay);

void BM_TreeMergePath(benchmark::State& state) {
  // Merge random 2^14-path decision streams into a growing tree. (The
  // legacy-vs-arena comparison on the fleet workload lives in
  // bench_tree_v2.cpp as BM_TreeMerge/BM_TreeQuery.)
  const unsigned k = 14;
  Rng rng(3);
  std::vector<std::vector<SymDecision>> paths;
  for (int i = 0; i < 4096; ++i) {
    std::vector<SymDecision> p;
    for (unsigned j = 0; j < k; ++j) p.push_back({j, rng.next_bool()});
    paths.push_back(std::move(p));
  }
  ExecTree tree(ProgramId(1));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.add_path(paths[i++ % paths.size()], Outcome::kOk));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeMergePath);

void BM_TreeFrontier(benchmark::State& state) {
  const unsigned k = 12;
  Rng rng(3);
  ExecTree tree(ProgramId(1));
  for (int i = 0; i < 2000; ++i) {
    std::vector<SymDecision> p;
    for (unsigned j = 0; j < k; ++j) p.push_back({j, rng.next_bool()});
    tree.add_path(p, Outcome::kOk);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.frontier(64));
  }
}
BENCHMARK(BM_TreeFrontier);

void BM_BitVecCommonPrefix(benchmark::State& state) {
  Rng rng(5);
  BitVec a, b;
  for (int i = 0; i < 4096; ++i) {
    const bool bit = rng.next_bool();
    a.push_back(bit);
    b.push_back(i < 4000 ? bit : !bit);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.common_prefix(b));
  }
}
BENCHMARK(BM_BitVecCommonPrefix);

void BM_ConstraintSolve(benchmark::State& state) {
  // The media_parser crash region constraint.
  PathConstraint pc;
  pc.push_back({make_bin(BinOp::kEq, make_input(0), make_const(13)), true});
  pc.push_back({make_bin(BinOp::kLt, make_input(1), make_const(200)), false});
  const std::vector<VarDomain> domains = {{0, 63}, {0, 255}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_path(pc, domains));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstraintSolve);

void BM_SymbolicExplore(benchmark::State& state) {
  const auto entry = make_media_parser();
  for (auto _ : state) {
    ExploreOptions opt;
    opt.input_domains = domains_of(entry);
    SymbolicExecutor ex(entry.program, opt);
    benchmark::DoNotOptimize(ex.explore());
  }
}
BENCHMARK(BM_SymbolicExplore);

void BM_TreeCodecRoundTrip(benchmark::State& state) {
  Rng rng(9);
  ExecTree tree(ProgramId(1));
  for (int i = 0; i < 1000; ++i) {
    std::vector<SymDecision> p;
    for (unsigned j = 0; j < 12; ++j) p.push_back({j, rng.next_bool()});
    tree.add_path(p, Outcome::kOk);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_tree(encode_tree(tree)));
  }
}
BENCHMARK(BM_TreeCodecRoundTrip);

// Batch ingestion workloads, 4096 wires each with unique ids (dedup passes
// every wire). Mixed: the standard corpus on random in-domain inputs; its
// replay keys repeat (818 distinct), so most wires coalesce and the misses
// are short replays into small trees. Fresh: path-rich
// make_config_space(16..19) programs, so nearly every wire is a new path
// and a replay miss. Both carry enough misses for ingest_batch to fan
// replay and merge out (Hive::kFanOutMisses) when its cap allows.
struct IngestWorkload {
  std::vector<CorpusEntry> corpus;
  std::vector<Bytes> wires;
};

IngestWorkload make_ingest_workload(std::vector<CorpusEntry> corpus,
                                    std::uint64_t seed) {
  IngestWorkload w{std::move(corpus), {}};
  Rng rng(seed);
  w.wires.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    const CorpusEntry& entry = w.corpus[rng.next_below(w.corpus.size())];
    ExecConfig cfg;
    for (const auto& d : entry.domains) {
      cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    cfg.seed = i + 1;
    auto result = execute(entry.program, cfg);
    result.trace.id = TraceId(i + 1);
    w.wires.push_back(encode_trace(result.trace));
  }
  return w;
}

const IngestWorkload& mixed_workload() {
  static const IngestWorkload w = make_ingest_workload(standard_corpus(), 21);
  return w;
}

const IngestWorkload& fresh_workload() {
  static const IngestWorkload w = [] {
    std::vector<CorpusEntry> corpus;
    for (unsigned k = 16; k < 20; ++k) corpus.push_back(make_config_space(k));
    return make_ingest_workload(std::move(corpus), 22);
  }();
  return w;
}

// Arg(0): serial baseline (per-wire ingest_bytes). Arg(k>0): one
// ingest_batch with the ingest pool capped at k workers (1: inline). Each
// iteration ingests the whole workload into a fresh hive, so dedup and the
// replay cache start cold every time.
void run_ingest(benchmark::State& state, const IngestWorkload& w) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    HiveConfig cfg;
    cfg.ingest_threads = cap;
    Hive hive(&w.corpus, cfg);
    if (cap == 0) {
      for (const auto& wire : w.wires) hive.ingest_bytes(wire);
    } else {
      hive.ingest_batch(w.wires);
    }
    benchmark::DoNotOptimize(hive.stats().paths_merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.wires.size()));
}

void BM_IngestBatch(benchmark::State& state) {
  run_ingest(state, mixed_workload());
}
BENCHMARK(BM_IngestBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_IngestBatchFresh(benchmark::State& state) {
  run_ingest(state, fresh_workload());
}
BENCHMARK(BM_IngestBatchFresh)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HiveIngest(benchmark::State& state) {
  // Full pipeline: decode + bucket + replay + merge.
  static std::vector<CorpusEntry> corpus = {make_media_parser()};
  Hive hive(&corpus);
  Rng rng(7);
  std::vector<Bytes> wires;
  for (int i = 0; i < 512; ++i) {
    ExecConfig cfg;
    cfg.inputs = {rng.next_in(0, 63), rng.next_in(0, 255)};
    auto result = execute(corpus[0].program, cfg);
    // id 0 bypasses dedup so every iteration exercises the full pipeline.
    result.trace.id = TraceId(0);
    wires.push_back(encode_trace(result.trace));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    hive.ingest_bytes(wires[i++ % wires.size()]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HiveIngest);

}  // namespace
}  // namespace softborg

int main(int argc, char** argv) {
  softborg::BenchJsonWriter json("e10_merge_micro", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  softborg::JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write() ? 0 : 1;
}
