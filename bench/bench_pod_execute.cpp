// Pod execution throughput: the frozen pre-rebuild switch interpreter
// (execute_reference) vs the predecode + direct-threaded core, unfused and
// fused (ISSUE 6 / ROADMAP item 1 acceptance: fused >= 2x reference on the
// mixed workload, byte-identical results — the identity half is pinned by
// tests/dispatch_diff_test.cpp).
//
// Workloads are prebuilt (program, inputs, seed) runs: a synthetic
// hot loop dense in fusible pairs, and corpus programs dominated by loops
// the fleet actually replays. items/s = executed MiniVM instructions/s
// (trace.steps).
//
// BM_ShortRun_{Cached,Held}/<program> time one fleet-shaped run per
// iteration, so their time column is ns per run: execute(program, config)
// with its decode-cache lookup, against a held decoded stream.
//
//   ./bench_pod_execute                 console table
//   ./bench_pod_execute --json -        + BENCH_pod_execute.json records
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_json_gbench.h"
#include "common/rng.h"
#include "interp_ref.h"
#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "minivm/interp.h"
#include "minivm/random_program.h"

namespace softborg {
namespace {

// Arithmetic loop dense in fusible pairs (const+add, const+sub,
// cmp+branch): the shape of the corpus programs' hot loops, distilled.
Program hot_loop() {
  ProgramBuilder b("hot_loop");
  const Reg n = b.reg();
  const Reg acc = b.reg();
  const Reg k = b.reg();
  const Reg cond = b.reg();
  const Reg zero = b.reg();
  b.input(n, b.input_slot());
  b.const_(acc, 0);
  b.const_(zero, 0);
  const ProgramBuilder::Label loop = b.here();
  const ProgramBuilder::Label done = b.label();
  b.const_(k, 3);
  b.add(acc, acc, k);
  b.const_(k, 1);
  b.sub(n, n, k);
  b.cmp_lt(cond, zero, n);
  b.branch_if(cond, loop, done);
  b.bind(done);
  b.output(acc);
  b.halt();
  return b.build();
}

// Loop whose body shuffles a register into a global each round
// (mov+storeg), with a const+cmp+branch trip check.
Program global_loop() {
  ProgramBuilder b("global_loop", 2);
  const Reg n = b.reg();
  const Reg acc = b.reg();
  const Reg tmp = b.reg();
  const Reg k = b.reg();
  const Reg cond = b.reg();
  const std::uint32_t g = b.global();
  b.input(n, b.input_slot());
  b.const_(acc, 0);
  const ProgramBuilder::Label loop = b.here();
  const ProgramBuilder::Label done = b.label();
  b.const_(k, 1);
  b.add(acc, acc, k);
  b.mov(tmp, acc);
  b.storeg(g, tmp);
  b.const_(k, 1);
  b.sub(n, n, k);
  b.cmp_lt(cond, k, n);
  b.branch_if(cond, loop, done);
  b.bind(done);
  b.loadg(tmp, g);
  b.output(tmp);
  b.halt();
  return b.build();
}

struct Workload {
  Program program;
  std::vector<Value> inputs;
  std::uint64_t seed = 1;
};

// The mixed set: synthetic hot loops plus corpus programs with realistic
// branch/syscall/global mixes. Inputs are fixed so every leg replays the
// exact same executions.
std::vector<Workload> mixed_workloads() {
  std::vector<Workload> ws;
  ws.push_back({hot_loop(), {20'000}, 11});
  ws.push_back({global_loop(), {10'000}, 12});
  Rng rng(99);
  for (CorpusEntry entry :
       {make_media_parser(), make_file_copier(), make_config_space(8),
        make_skewed_workload(6, 24)}) {
    for (int rep = 0; rep < 8; ++rep) {
      Workload w;
      for (const auto& domain : entry.domains) {
        w.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }
      w.seed = rng();
      w.program = entry.program;
      ws.push_back(std::move(w));
    }
  }
  return ws;
}

enum class Core { kReference, kThreaded, kThreadedFused };

void run_workloads(benchmark::State& state,
                   const std::vector<Workload>& workloads, Core core) {
  std::uint64_t instrs = 0;
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;  // per-iteration, so the reported value is leg-comparable
    for (const Workload& w : workloads) {
      ExecConfig cfg;
      cfg.inputs = w.inputs;
      cfg.seed = w.seed;
      cfg.enable_fusion = core == Core::kThreadedFused;
      const ExecResult r = core == Core::kReference
                               ? execute_reference(w.program, cfg)
                               : execute(w.program, cfg);
      instrs += r.trace.steps;
      for (Value v : r.outputs) checksum ^= static_cast<std::uint64_t>(v);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
  state.counters["checksum"] =
      benchmark::Counter(static_cast<double>(checksum & 0xffff));
}

const std::vector<Workload>& mixed() {
  static const std::vector<Workload> ws = mixed_workloads();
  return ws;
}

const std::vector<Workload>& loops_only() {
  static const std::vector<Workload> ws = {
      {hot_loop(), {20'000}, 11},
      {global_loop(), {10'000}, 12},
  };
  return ws;
}

// Headline numbers (EXPERIMENTS.md): mixed fleet-like workload.
void BM_PodExecute_Reference(benchmark::State& state) {
  run_workloads(state, mixed(), Core::kReference);
}
void BM_PodExecute_Threaded(benchmark::State& state) {
  run_workloads(state, mixed(), Core::kThreaded);
}
void BM_PodExecute_ThreadedFused(benchmark::State& state) {
  run_workloads(state, mixed(), Core::kThreadedFused);
}

// Fusion ceiling: pure hot loops, where fused pairs dominate the stream.
void BM_PodExecuteLoops_Reference(benchmark::State& state) {
  run_workloads(state, loops_only(), Core::kReference);
}
void BM_PodExecuteLoops_Threaded(benchmark::State& state) {
  run_workloads(state, loops_only(), Core::kThreaded);
}
void BM_PodExecuteLoops_ThreadedFused(benchmark::State& state) {
  run_workloads(state, loops_only(), Core::kThreadedFused);
}

BENCHMARK(BM_PodExecute_Reference);
BENCHMARK(BM_PodExecute_Threaded);
BENCHMARK(BM_PodExecute_ThreadedFused);
BENCHMARK(BM_PodExecuteLoops_Reference);
BENCHMARK(BM_PodExecuteLoops_Threaded);
BENCHMARK(BM_PodExecuteLoops_ThreadedFused);

// Short runs: the programs perfbench's fleet_loop runs (the standard corpus
// and six generated programs) plus config_space_22, whose runs take tens
// to a few hundred steps. The loop workloads above run 80k-120k steps per
// call, which hides any fixed per-run cost; here it is most of the run.
struct ShortRuns {
  Program program;
  std::vector<std::vector<Value>> inputs;
  std::vector<std::uint64_t> seeds;
};

const std::vector<ShortRuns>& short_runs() {
  static const std::vector<ShortRuns> sets = [] {
    std::vector<CorpusEntry> entries = standard_corpus();
    entries.push_back(make_config_space(22));
    for (std::uint64_t seed : {9000, 9001, 9006, 9010, 9011, 9013}) {
      entries.push_back(make_random_program(seed));
    }
    std::vector<ShortRuns> out;
    Rng rng(7);
    for (CorpusEntry& entry : entries) {
      ShortRuns s;
      s.program = std::move(entry.program);
      for (int i = 0; i < 64; ++i) {
        std::vector<Value> inputs;
        for (const auto& domain : entry.domains) {
          inputs.push_back(rng.next_in(domain.lo, domain.hi));
        }
        s.inputs.push_back(std::move(inputs));
        s.seeds.push_back(rng());
      }
      out.push_back(std::move(s));
    }
    return out;
  }();
  return sets;
}

void run_short(benchmark::State& state, const ShortRuns& s, bool held) {
  const auto decoded = predecode_cached(s.program, nullptr);
  std::size_t i = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    ExecConfig cfg;
    cfg.inputs = s.inputs[i];
    cfg.seed = s.seeds[i];
    const ExecResult r = held ? execute(s.program, *decoded, cfg)
                              : execute(s.program, cfg);
    steps += r.trace.steps;
    benchmark::DoNotOptimize(r.trace.outcome);
    i = (i + 1) % s.inputs.size();
  }
  state.counters["steps_per_run"] =
      static_cast<double>(steps) / static_cast<double>(state.iterations());
}

void register_short_runs() {
  for (const ShortRuns& s : short_runs()) {
    for (const bool held : {false, true}) {
      const std::string name =
          std::string(held ? "BM_ShortRun_Held/" : "BM_ShortRun_Cached/") +
          s.program.name;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [&s, held](benchmark::State& state) {
                                     run_short(state, s, held);
                                   });
    }
  }
}

}  // namespace
}  // namespace softborg

int main(int argc, char** argv) {
  softborg::BenchJsonWriter json("pod_execute", argc, argv);  // strips --json
  softborg::register_short_runs();
  benchmark::Initialize(&argc, argv);
  softborg::JsonTeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.write() ? 0 : 1;
}
