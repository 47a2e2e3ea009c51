// MiniVM interpreter with pod-style instrumentation.
//
// Executes a Program deterministically given (inputs, seed): the seed drives
// both the thread scheduler and the environment model, so a run is exactly
// reproducible. While executing it captures the paper's §3.1 by-products —
// branch bit-vector (tainted branches only by default), schedule summary,
// syscall summaries, lock events — and classifies the outcome.
//
// The interpreter also contains the two runtime fix hooks (GuardPatch branch
// steering and deadlock-immunity lock serialization) and the guidance hooks
// (schedule steering plans and syscall fault injection).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "minivm/env.h"
#include "minivm/fixes.h"
#include "minivm/program.h"
#include "trace/trace.h"

namespace softborg {

struct OpPairCounts;    // minivm/decode.h
struct DecodedProgram;  // minivm/decode.h

// A schedule steering plan: follow these (thread, steps) runs while the
// named thread is runnable; fall back to the seeded scheduler afterwards.
struct SchedulePlan {
  std::vector<ScheduleRun> runs;
};

// One observed branch decision, in serialized execution order. Collected
// only when ExecConfig::collect_branch_events is set (tree building, debug).
struct BranchEvent {
  std::uint32_t site = 0;
  bool taken = false;
  bool tainted = false;
  std::uint8_t thread = 0;

  bool operator==(const BranchEvent&) const = default;
};

struct ExecConfig {
  std::vector<Value> inputs;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 200'000;  // beyond this: Outcome::kHang
  std::uint32_t quantum = 6;          // scheduler quantum (steps)
  Granularity granularity = Granularity::kTaintedBranches;

  const FixSet* fixes = nullptr;
  const SchedulePlan* schedule_plan = nullptr;
  const FaultPlan* fault_plan = nullptr;
  const EnvModel* env = nullptr;  // defaults to a shared default EnvModel

  bool collect_branch_events = false;

  // Execute the superinstruction-fused decoded stream (decode.h). Fusion is
  // trace-invisible — fused pairs debit steps/quantum once per original
  // instruction — so this is a performance knob, not a semantics knob.
  bool enable_fusion = true;
  // When set, the run tallies dynamic fallthrough opcode pairs into the
  // pointed-to counters (and runs unfused, so raw pairs are observable).
  OpPairCounts* pair_counts = nullptr;
};

struct ExecResult {
  Trace trace;
  std::vector<Value> outputs;
  std::vector<BranchEvent> branch_events;  // iff collect_branch_events
  // Wait-for cycle description when outcome == kDeadlock: the lock each
  // cycle participant is blocked on, in cycle order.
  std::vector<LockEvent> deadlock_cycle;
  bool fix_intervened = false;  // some installed fix altered this run
};

// Runs `program` under `config`: one predecode_cached() lookup of
// (program, config.fixes, fusion), then the held-stream overload below.
// Thread-safe: no shared mutable state beyond the decode cache.
ExecResult execute(const Program& program, const ExecConfig& config);

// Runs a held decoded stream of `program` (predecode / predecode_cached,
// decode.h) with no cache lookup — for callers that run one (program, fix
// set) many times. The stream already carries its fixes and fusion mode, so
// `config.fixes` must be null and `config.enable_fusion` /
// `config.pair_counts` must ask for the stream's mode (pair profiling
// needs an unfused stream); a stream decoded from a program of another
// shape (code length, thread/register/global/lock counts) is refused too.
// Each of these is an always-on SB_CHECK.
ExecResult execute(const Program& program, const DecodedProgram& decoded,
                   const ExecConfig& config);

// The process-wide default environment model (immutable).
const EnvModel& default_env();

}  // namespace softborg
