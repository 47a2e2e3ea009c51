// Control-plane message codecs for the distributed hive.
//
// Traces travel as kMsgTrace carrying the v2 trace wire verbatim; everything
// else the router and shard workers say to each other is one of these small
// varint-encoded control payloads. Decoders validate and return nullopt on
// malformed input (same posture as trace/codec.h — the hive must survive
// hostile or corrupt peers).
#pragma once

#include <optional>

#include "common/varint.h"
#include "hive/hive.h"

namespace softborg::dist {

// Worker → router, first message after connecting (and after a restart):
// which shard this is and how many unacknowledged traces the router may have
// in flight toward it (the credit window).
struct HelloMsg {
  std::uint64_t shard_index = 0;
  std::uint32_t credit_window = 0;
  bool resumed = false;  // worker warm-started from a durable snapshot
  // Handshake clock pair sampled at send time, for aligning this process's
  // monotonic timestamps onto the fleet timeline (obs/recorder.h dumps carry
  // the same pair). Both 0 unless tracing is enabled, so the untraced
  // handshake stays deterministic. Decoders also accept the pre-tracing
  // 3-field hello.
  std::uint64_t mono_ns = 0;
  std::uint64_t real_ns = 0;

  bool operator==(const HelloMsg&) const = default;
};

Bytes encode_hello(const HelloMsg& m);
std::optional<HelloMsg> decode_hello(const Bytes& bytes);

// Worker → router at shutdown: the worker's closing ledger, including its
// full HiveStats so a driver can aggregate fleet totals (and the socket-vs-
// SimNet differential can compare per-shard stats byte for byte).
struct WorkerStatsMsg {
  std::uint64_t shard_index = 0;
  std::uint64_t ingested = 0;   // traces admitted and batched into the hive
  std::uint64_t shed = 0;       // worker-side admission-control sheds
  std::uint64_t queue_max_depth = 0;
  std::uint64_t batches = 0;
  std::uint64_t snapshots_written = 0;
  HiveStats hive;

  bool operator==(const WorkerStatsMsg&) const = default;

  static constexpr auto fields() {
    using M = WorkerStatsMsg;
    return std::tuple{field(&M::shard_index), field(&M::ingested),
                      field(&M::shed), field(&M::queue_max_depth),
                      field(&M::batches), field(&M::snapshots_written),
                      field(&M::hive)};
  }
};

Bytes encode_worker_stats(const WorkerStatsMsg& m);
std::optional<WorkerStatsMsg> decode_worker_stats(const Bytes& bytes);

}  // namespace softborg::dist
