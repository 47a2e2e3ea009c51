// Wire codec for traces (§3.1: "collecting them efficiently").
//
// Varint + bit-packed encoding; decode validates and returns nullopt on any
// malformed input (the hive must survive hostile/corrupt pods).
#pragma once

#include <optional>

#include "common/varint.h"
#include "trace/trace.h"

namespace softborg {

Bytes encode_trace(const Trace& t);
std::optional<Trace> decode_trace(const Bytes& bytes);

// Decodes into `out`, recycling its payload capacity — for hot paths that
// decode many wires in a loop. Returns false on malformed input, leaving
// `out` valid but unspecified. decode_trace() is this plus a fresh Trace.
bool decode_trace_into(Trace& out, const Bytes& bytes);

// Scalar header of a trace wire plus its replay memoization key, extracted
// in one allocation-free pass. summarize_trace_wire(w) succeeds exactly when
// decode_trace(w) succeeds, the shared fields agree, and `key` equals
// replay_key(*decode_trace(w)) — see codec tests. The hive's batch pipeline
// uses this to defer full decoding (vector payloads) to the consumers that
// need it: cache-missing replay, bug tracking of failures, the gate.
// dist::TraceRouter routes on `program` from this same peek, so the route
// step validates without ever materializing a payload, and a wire that
// summarizes here is guaranteed to decode at the owning shard.
struct TraceWireSummary {
  TraceId id{0};
  ProgramId program{0};
  PodId pod{0};
  Outcome outcome = Outcome::kOk;
  std::optional<CrashInfo> crash;
  Granularity granularity = Granularity::kTaintedBranches;
  std::uint64_t steps = 0;
  bool patched = false;
  bool guided = false;
  std::uint64_t day = 0;
  ReplayKey key;
};

std::optional<TraceWireSummary> summarize_trace_wire(const Bytes& bytes);

}  // namespace softborg
