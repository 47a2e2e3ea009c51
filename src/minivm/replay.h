// Hive-side trace replay: reconstructing the deterministic branches
// (paper §3.2).
//
// The hive receives only the by-products — a bit-vector of input-dependent
// branch directions, the thread-schedule summary, and the outcome. It does
// NOT receive input values (privacy). Replay re-executes the program on the
// interpreter's own core (interp.cpp) with the inputs unknown, which is what
// taint tracks: instructions on untainted values compute concretely; inputs
// and syscalls produce tainted values; a decision on an untainted condition
// is *reconstructed* (no bit needed), while a decision on a tainted one
// consumes the next bit from the trace. The output is the full decision
// stream — the root-to-leaf path of Fig. 2/3 — that the collective
// execution tree merges.
#pragma once

#include <string>
#include <vector>

#include "minivm/interp.h"
#include "minivm/program.h"
#include "trace/trace.h"

namespace softborg {

struct DecodedProgram;  // minivm/decode.h

struct ReplayResult {
  bool ok = false;     // trace is consistent with the program
  std::string error;   // when !ok: what went wrong
  // Tainted (input-dependent) branch decisions in serialized execution
  // order — the canonical path the execution tree stores.
  std::vector<BranchEvent> decisions;
  Outcome outcome = Outcome::kOk;
};

// The most steps a replayable trace may claim. A run stops at max_steps,
// except that a thread yielding exactly at the limit runs one more
// instruction first (interp.cpp), so runs record max_steps + 1 steps at
// most (61,800 probe runs never exceeded it). Pods default to max_steps =
// 200,000, and the largest any caller sets is 1,000,000
// (tests/property_test.cpp, whose traces that test replays), so 2^20 =
// 1,048,576 covers every trace this code base writes. A wire comes from
// outside (pods, routers, socket frames): a longer claim is refused instead
// of run, and a deployment that raises PodConfig::max_steps past the cap
// gets its longest hang traces counted as unreplayable.
inline constexpr std::uint64_t kMaxReplaySteps = std::uint64_t{1} << 20;

// Why `trace` must not be replayed against a program of `num_threads`
// threads, whatever its bits say, or nullptr: it claims more than
// kMaxReplaySteps steps, or, with more than one thread, its schedule does
// not add up to its steps (every run the interpreter records does).
// Replay applies it before running anything.
const char* replay_refusal(std::size_t num_threads, const Trace& trace);

// Replays `trace` against `program`. Works for any granularity that records
// branch bits (kTaintedBranches, kAllBranches, kFull); at kAllBranches the
// recorded direction of *deterministic* branches is cross-checked against
// the reconstructed one, catching corrupt or mismatched traces. Runs the
// program's cached decoded stream (predecode_cached: no fixes, fused).
ReplayResult replay_trace(const Program& program, const Trace& trace);

// The same on a held decoded stream of `program` (no fixes, either fusion
// mode), with no cache lookup: for callers that replay one program often.
ReplayResult replay_trace(const Program& program,
                          const DecodedProgram& decoded, const Trace& trace);

}  // namespace softborg
