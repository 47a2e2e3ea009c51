// The hive's original trace replayer, frozen as a test oracle
// (replay_ref.cpp): a three-valued interpreter of its own, which replay on
// the interpreter core (minivm/replay.h) must agree with. Only
// replay_diff_test links it.
#pragma once

#include <string>
#include <vector>

#include "minivm/interp.h"
#include "minivm/program.h"
#include "trace/trace.h"

namespace softborg {

struct ReferenceReplayResult {
  bool ok = false;     // trace is consistent with the program
  std::string error;   // when !ok: what went wrong
  // Tainted (input-dependent) branch decisions in serialized execution
  // order — the canonical path the execution tree stores.
  std::vector<BranchEvent> decisions;
  Outcome outcome = Outcome::kOk;
  std::uint64_t steps_used = 0;
  std::size_t bits_consumed = 0;
};

// Does not apply replay_refusal(): it follows any schedule and any step
// count, however long.
ReferenceReplayResult replay_trace_reference(const Program& program,
                                             const Trace& trace);

}  // namespace softborg
