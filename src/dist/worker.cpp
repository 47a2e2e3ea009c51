#include "dist/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "common/check.h"
#include "common/fields.h"
#include "common/fsio.h"
#include "common/state_wire.h"
#include "dist/socket.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "store/store.h"
#include "trace/codec.h"

namespace softborg::dist {

ShardWorker::ShardWorker(std::size_t index,
                         const std::vector<CorpusEntry>* corpus,
                         WorkerConfig config)
    : index_(index),
      corpus_(corpus),
      config_(std::move(config)),
      queue_(config_.queue_capacity) {
  SB_CHECK(corpus_ != nullptr);
  SB_CHECK(config_.credit_window >= 1 && config_.credit_window <= 0xffff);
  build_hive();
}

void ShardWorker::build_hive() {
  // Disjoint fix/proof id blocks and a per-shard seed, so no two shards hand
  // out the same id, and a socket fleet and an in-process one synthesize
  // identically-numbered artifacts.
  HiveConfig hive_config = config_.hive;
  hive_config.fixer.next_fix_id = 1 + index_ * 1'000'000;
  hive_config.next_proof_id = 1 + index_ * 1'000'000;
  hive_config.seed = config_.hive.seed ^ (index_ * 0x9e3779b97f4a7c15ULL);
  hive_ = std::make_unique<Hive>(corpus_, hive_config);
}

bool ShardWorker::try_resume() {
  if (config_.snapshot_dir.empty()) return false;
  const auto snapshot = store::read_snapshot(config_.snapshot_dir);
  if (!snapshot.has_value()) return false;
  const auto part = [&](const char* name) -> const Bytes* {
    const auto it = snapshot->parts.find(name);
    return it == snapshot->parts.end() ? nullptr : &it->second;
  };
  for (const char* name : {"hive", "trees", "solver", "worker"}) {
    if (part(name) == nullptr) return false;
  }
  // A snapshot of another shard, or one taken under another hive config or
  // corpus, would resume silently and diverge: cold-start instead.
  StateReader w(*part("worker"));
  const std::uint64_t idx = w.u64();
  const std::uint64_t fingerprint = w.u64();
  const std::uint64_t ingested = w.u64();
  const std::uint64_t shed = w.u64();
  const std::uint64_t batches = w.u64();
  const std::uint64_t snapshots_written = w.u64();
  if (!w.done() || idx != index_ || fingerprint != config_fingerprint()) {
    return false;
  }
  // On any validation failure the hive may be half-restored: rebuild it
  // cold so a corrupt snapshot degrades to a clean cold start, never a
  // Frankenstein state.
  const auto reject = [&] {
    build_hive();
    return false;
  };
  {
    StateReader r(*part("hive"));
    if (!hive_->load_state(r) || !r.done()) return reject();
  }
  {
    StateReader r(*part("trees"));
    if (!hive_->load_trees(r) || !r.done()) return reject();
  }
  {
    StateReader r(*part("solver"));
    if (!hive_->solver_cache().load_state(r) || !r.done()) return reject();
  }
  ingested_ = ingested;
  batches_ = batches;
  snapshots_written_ = snapshots_written;
  // The queue object is fresh; seed its shed ledger with the restored count
  // so closing stats are cumulative across restarts.
  queue_.restore_shed_total(shed);
  snapshot_seq_ = snapshot->seq;
  resumed_ = true;
  return true;
}

std::uint64_t ShardWorker::config_fingerprint() const {
  Bytes b;
  encode_fields(b, config_.hive);
  put_corpus_ids(b, *corpus_);
  return fnv1a64(b.data(), b.size());
}

void ShardWorker::send_hello(Channel& ch) {
  HelloMsg hello{index_, config_.credit_window, resumed_};
  if (obs::tracing_enabled()) {
    // Clock pair for cross-process timeline alignment (the untraced
    // handshake keeps both at 0 so its bytes stay deterministic).
    timespec mono{}, real{};
    ::clock_gettime(CLOCK_MONOTONIC, &mono);
    ::clock_gettime(CLOCK_REALTIME, &real);
    hello.mono_ns = std::uint64_t(mono.tv_sec) * 1'000'000'000ULL +
                    std::uint64_t(mono.tv_nsec);
    hello.real_ns = std::uint64_t(real.tv_sec) * 1'000'000'000ULL +
                    std::uint64_t(real.tv_nsec);
  }
  ch.send(kMsgHello, encode_hello(hello));
}

void ShardWorker::admit(Bytes wire, obs::TraceContext ctx) {
  // Admission control: summarize for priority (allocation-free peek; the
  // router already validated, so failures here are corruption — admit as
  // routine and let the hive count the decode failure deterministically).
  TracePriority priority = TracePriority::kRoutine;
  const auto summary = summarize_trace_wire(wire);
  if (summary) priority = trace_priority(*summary);
  if (obs::tracing_enabled()) {
    // The router's v2 frame normally delivers the accumulated chain; a v1
    // sender (or SimNet) yields no context, so re-derive the id locally —
    // same wire, same causal id — and the chain stays joinable even if the
    // upstream hop path is lost.
    if (!ctx.valid() && summary) {
      ctx.trace_id =
          obs::causal_trace_id(summary->id.value, summary->program.value);
    }
    ctx = obs::with_hop(ctx, obs::Hop::kShard);
    obs::Recorder::record(obs::EventKind::kShardAdmit, ctx,
                          static_cast<std::uint32_t>(index_));
  } else {
    ctx = {};
  }
  const std::uint64_t shed_before = queue_.shed_total();
  queue_.push(priority, std::move(wire), ctx);
  const std::uint64_t shed_delta = queue_.shed_total() - shed_before;
  if (shed_delta > 0) {
    obs::Recorder::record(obs::EventKind::kQueueShed, ctx,
                          static_cast<std::uint32_t>(index_), queue_.depth());
  }
  // A shed trace still consumed a router credit: grant it back, or the
  // window leaks shut under sustained overload.
  pending_credit_ += static_cast<std::uint32_t>(shed_delta);
}

bool ShardWorker::write_snapshot() {
  if (config_.snapshot_dir.empty()) return false;
  std::vector<store::Part> parts;
  {
    Bytes h;
    hive_->save_state(h);
    parts.push_back({"hive", std::move(h)});
  }
  {
    Bytes t;
    hive_->save_trees(t);
    parts.push_back({"trees", std::move(t)});
  }
  {
    Bytes s;
    hive_->solver_cache().save_state(s);
    parts.push_back({"solver", std::move(s)});
  }
  {
    Bytes w;
    put_varint(w, index_);
    put_varint(w, config_fingerprint());
    put_varint(w, ingested_);
    put_varint(w, queue_.shed_total());
    put_varint(w, batches_);
    put_varint(w, snapshots_written_ + 1);
    parts.push_back({"worker", std::move(w)});
  }
  if (!store::write_snapshot(config_.snapshot_dir, ++snapshot_seq_, parts)) {
    return false;
  }
  snapshots_written_++;
  obs::Recorder::record(obs::EventKind::kSnapshotCommit, {},
                        static_cast<std::uint32_t>(index_), snapshot_seq_);
  return true;
}

bool ShardWorker::pump(Channel& ch) {
  if (done_) return false;
  active_ = false;
  for (auto& d : ch.poll()) {
    active_ = true;
    switch (d.type) {
      case kMsgTrace:
        admit(std::move(d.payload), d.ctx);
        break;
      case kMsgShutdown:
        shutdown_ = true;
        break;
      case kMsgSnapshot:
        (void)write_snapshot();
        // A snapshot request is also the fleet's "leave a postmortem now"
        // signal: re-flush the flight recorder so a later kill -9 still has
        // a recent ring on disk.
        if (!config_.trace_dump_path.empty() && obs::Recorder::enabled()) {
          (void)obs::Recorder::global().flush_to_file(config_.trace_dump_path);
        }
        ch.send(kMsgSnapshot, Bytes{});  // ack (even on failure: unblocks)
        break;
      default:
        break;  // credit/hello noise from the router is ignorable
    }
  }
  // Ingest one bounded batch; batch_max keeps the round short so credit
  // grants and shutdown stay responsive under sustained load.
  std::vector<Bytes> batch;
  std::vector<obs::TraceContext> batch_ctx;
  batch.reserve(config_.batch_max);
  while (batch.size() < config_.batch_max) {
    auto item = queue_.pop();
    if (!item) break;
    if (obs::Recorder::enabled()) batch_ctx.push_back(item->ctx);
    batch.push_back(std::move(item->wire));
  }
  if (!batch.empty()) {
    active_ = true;
    obs::Recorder::record(obs::EventKind::kBatchDecode, {},
                          static_cast<std::uint32_t>(batch.size()));
    hive_->ingest_batch(batch);
    // One merge-hop event per trace, carrying the full accumulated path
    // (pod>router>shard>merge): this is the event the trace-merge acceptance
    // check follows across process boundaries.
    for (const auto& ctx : batch_ctx) {
      if (!ctx.valid()) continue;
      obs::Recorder::record(obs::EventKind::kMerge,
                            obs::with_hop(ctx, obs::Hop::kMerge),
                            static_cast<std::uint32_t>(index_));
    }
    ingested_ += batch.size();
    batches_++;
    pending_credit_ += static_cast<std::uint32_t>(batch.size());
    if (config_.snapshot_every_batches > 0 &&
        batches_ % config_.snapshot_every_batches == 0) {
      (void)write_snapshot();
    }
  }
  if (pending_credit_ > 0) {
    ch.send_credit(pending_credit_);
    pending_credit_ = 0;
  }
  publish_metrics();
  if (shutdown_ && queue_.empty()) {
    // Drained: report the closing ledger, then ack the shutdown. A final
    // snapshot makes the restart path (CI's kill-and-resume leg) current.
    if (!config_.snapshot_dir.empty()) (void)write_snapshot();
    ch.send(kMsgStats, encode_worker_stats(closing_stats()));
    Bytes trees;
    hive_->save_trees(trees);
    ch.send(kMsgTreeData, std::move(trees));
    ch.send(kMsgShutdown, Bytes{});
    ch.flush();
    done_ = true;
    return false;
  }
  return true;
}

WorkerStatsMsg ShardWorker::closing_stats() const {
  WorkerStatsMsg m;
  m.shard_index = index_;
  m.ingested = ingested_;
  m.shed = queue_.shed_total();
  m.queue_max_depth = queue_.max_depth();
  m.batches = batches_;
  m.snapshots_written = snapshots_written_;
  m.hive = hive_->stats();
  return m;
}

void ShardWorker::publish_metrics() {
  if (!obs::enabled()) return;
  struct Metrics {
    obs::Counter& ingested = obs::MetricsRegistry::global().counter(
        "dist.worker.ingested_total");
    obs::Counter& shed = obs::MetricsRegistry::global().counter(
        "dist.worker.shed_total");
    obs::Counter& batches = obs::MetricsRegistry::global().counter(
        "dist.worker.batches_total");
    obs::Gauge& depth =
        obs::MetricsRegistry::global().gauge("dist.worker.queue_depth");
    static Metrics& get() {
      static Metrics m;
      return m;
    }
  };
  auto& m = Metrics::get();
  if (ingested_ != obs_ingested_) {
    m.ingested.add(ingested_ - obs_ingested_);
    obs_ingested_ = ingested_;
  }
  const std::uint64_t shed = queue_.shed_total();
  if (shed != obs_shed_) {
    m.shed.add(shed - obs_shed_);
    obs_shed_ = shed;
  }
  if (batches_ != obs_batches_) {
    m.batches.add(batches_ - obs_batches_);
    obs_batches_ = batches_;
  }
  m.depth.set(static_cast<std::int64_t>(queue_.depth()));
}

int run_worker_loop(std::size_t index, const std::vector<CorpusEntry>* corpus,
                    const WorkerConfig& config,
                    const std::string& router_addr) {
  if (!config.trace_dump_path.empty()) {
    obs::set_tracing_enabled(true);
    obs::Recorder::set_enabled(true);
    auto& rec = obs::Recorder::global();
    // Forked workers inherit the parent's rings; drop those stale events so
    // this dump describes only this process's life.
    rec.clear();
    char label[32];
    std::snprintf(label, sizeof(label), "shard%zu", index);
    rec.set_label(label);
    rec.install_signal_flush(config.trace_dump_path);
  }
  auto ch = dial(router_addr);
  if (ch == nullptr) return 2;  // router never came up
  ShardWorker worker(index, corpus, config);
  (void)worker.try_resume();
  worker.send_hello(*ch);
  while (worker.pump(*ch)) {
    if (!ch->alive()) return 3;  // router died mid-run
    if (!worker.last_round_active()) {
      // Idle: yield the core instead of spinning the poll loop.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // Closing frames may still sit in the socket buffer; push until gone.
  for (int i = 0; i < 1000 && ch->alive(); ++i) {
    ch->flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!config.trace_dump_path.empty()) {
    (void)obs::Recorder::global().flush_to_file(config.trace_dump_path);
  }
  return 0;
}

int spawn_worker_process(std::size_t index,
                         const std::vector<CorpusEntry>* corpus,
                         const WorkerConfig& config,
                         const std::string& router_addr) {
  const int pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure: -1)
  ::_exit(run_worker_loop(index, corpus, config, router_addr));
}

}  // namespace softborg::dist
