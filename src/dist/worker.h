// Shard worker for the multi-process distributed hive (ISSUE 9 tentpole).
//
// One ShardWorker owns one Hive with the shard's disjoint fix/proof id
// blocks and per-shard seed (build_hive holds the one copy of that scheme).
// It runs in its own OS process over a SocketChannel, or in-process over a
// SimNetChannel — the in-process N-shard fleet is N workers behind one
// TraceRouter. The worker's loop:
//
//   poll → admit into a bounded ingress queue (admission control sheds the
//   lowest-priority traffic when full) → ingest_batch up to batch_max →
//   grant credit back to the router for every trace consumed (ingested OR
//   shed — credit tracks queue slots, not successful work, so flow control
//   never leaks).
//
// Durability rides on the PR-8 snapshot store: the worker snapshots its
// hive (state + trees + worker ledger) on request
// (kMsgSnapshot), periodically (snapshot_every_batches), and at shutdown;
// a restarted worker warm-starts from the newest good generation and
// re-announces itself to the router with resumed=true.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dist/bounded_queue.h"
#include "dist/channel.h"
#include "dist/control.h"
#include "hive/hive.h"
#include "minivm/corpus.h"

namespace softborg::dist {

struct WorkerConfig {
  HiveConfig hive;
  // Ingress queue bound (worker-side admission control).
  std::size_t queue_capacity = 1024;
  // Credit window announced to the router: the max unacknowledged traces in
  // flight toward this worker. Must fit the frame header's u16 grant field.
  std::uint32_t credit_window = 256;
  // Max traces per ingest_batch call — bounds per-round latency so credit
  // grants (and shutdown handling) stay responsive under load.
  std::size_t batch_max = 64;
  // Durable snapshot directory; empty disables durability.
  std::string snapshot_dir;
  // Write a snapshot every N batches (0 = only on request/shutdown).
  std::uint64_t snapshot_every_batches = 0;
  // Flight-recorder dump file; empty disables tracing + recording entirely.
  // When set, run_worker_loop enables both, installs the fatal-signal flush
  // at this path, re-flushes on every snapshot request, and flushes once
  // more at clean shutdown — so even a kill -9'd worker leaves its
  // last-snapshot-time ring behind.
  std::string trace_dump_path;
};

class ShardWorker {
 public:
  // `corpus` must outlive the worker. The shard's Hive gets disjoint id
  // blocks and a per-shard seed derived from `index`, so a socket fleet and
  // an in-process one synthesize identically-numbered artifacts.
  ShardWorker(std::size_t index, const std::vector<CorpusEntry>* corpus,
              WorkerConfig config);

  // Warm start from config.snapshot_dir (no-op without one). True when a
  // valid snapshot of this shard, taken under the same hive config and
  // corpus, was loaded; false falls back to a cold start.
  bool try_resume();

  // Announces shard index + credit window to the router. Call once after
  // connecting (and again after any reconnect).
  void send_hello(Channel& ch);

  // One round of the worker loop. Returns false once the shutdown protocol
  // has completed (queue drained, closing stats + trees + ack sent).
  bool pump(Channel& ch);

  // True when the previous pump() round did any work (received, ingested,
  // or shed) — drivers sleep briefly on idle rounds instead of spinning.
  bool last_round_active() const { return active_; }

  WorkerStatsMsg closing_stats() const;
  Hive& hive() { return *hive_; }
  std::size_t index() const { return index_; }
  bool resumed() const { return resumed_; }
  std::uint64_t snapshots_written() const { return snapshots_written_; }

  // Writes a durable snapshot now. False on I/O failure or when durability
  // is disabled.
  bool write_snapshot();

 private:
  void admit(Bytes wire, obs::TraceContext ctx);
  void publish_metrics();

  // Rebuilds hive_ cold with the shard's id blocks and seed (construction
  // and the discard-on-corrupt-snapshot path share it).
  void build_hive();
  // Hash of config.hive (HiveConfig's list) and the corpus program ids,
  // stored in the "worker" snapshot part; try_resume refuses a mismatch.
  std::uint64_t config_fingerprint() const;

  std::size_t index_;
  const std::vector<CorpusEntry>* corpus_;
  WorkerConfig config_;
  std::unique_ptr<Hive> hive_;
  BoundedTraceQueue queue_;
  bool shutdown_ = false;
  bool done_ = false;
  bool active_ = false;
  bool resumed_ = false;
  std::uint32_t pending_credit_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  // publish_metrics() delta baselines.
  std::uint64_t obs_ingested_ = 0;
  std::uint64_t obs_shed_ = 0;
  std::uint64_t obs_batches_ = 0;
};

// Dials `router_addr`, hellos, and pumps until shutdown. The worker-process
// main loop (CI's shard processes and spawn_worker_process children run
// exactly this). Returns a process exit code: 0 on clean shutdown, nonzero
// when the router was unreachable or the link died mid-run.
int run_worker_loop(std::size_t index, const std::vector<CorpusEntry>* corpus,
                    const WorkerConfig& config, const std::string& router_addr);

// Forks a child that runs run_worker_loop and exits. Returns the child pid
// (caller reaps), or -1 when fork fails. Fork the fleet BEFORE creating any
// thread pools in the parent (fork does not duplicate threads).
int spawn_worker_process(std::size_t index,
                         const std::vector<CorpusEntry>* corpus,
                         const WorkerConfig& config,
                         const std::string& router_addr);

}  // namespace softborg::dist
