#include "minivm/replay.h"

#include "minivm/decode.h"

namespace softborg {

const char* replay_refusal(std::size_t num_threads, const Trace& trace) {
  if (trace.steps > kMaxReplaySteps) return "trace claims too many steps";
  if (num_threads > 1) {
    std::uint64_t scheduled = 0;
    for (const ScheduleRun& run : trace.schedule) scheduled += run.steps;
    if (scheduled != trace.steps) return "schedule does not add up to steps";
  }
  return nullptr;
}

ReplayResult replay_trace(const Program& program, const Trace& trace) {
  return replay_trace(program, *predecode_cached(program, nullptr), trace);
}

}  // namespace softborg
