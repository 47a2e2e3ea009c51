// Trace router for the multi-process distributed hive (ISSUE 9 tentpole).
//
// The router is the fleet's ingress: pods (or an in-process traffic source)
// hand it encoded traces; it peeks each wire's header with
// summarize_trace_wire — never materializing the payload — routes by
// consistent hash of the program id (dist/ring.h), and forwards to the
// owning shard worker within that worker's credit window. Between admission
// and forwarding each trace sits in a bounded per-shard queue
// (dist/bounded_queue.h): when a shard falls behind, the queue fills, the
// lowest-priority traffic is shed, and memory stays bounded no matter how
// hot the ingress runs. When a shard dies (socket error), its queued and
// arriving traffic is shed — the fleet degrades, it never wedges — and a
// restarted worker re-announcing itself (kMsgHello) resumes service.
//
// The router is transport-agnostic: it speaks Channels (dist/channel.h), so
// the same code runs over SimNet in the deterministic differential tests
// and over real sockets in production. It is single-threaded by design —
// one pump() loop owns every queue, which keeps forwarding order per shard
// strictly FIFO (the determinism argument for socket-vs-SimNet
// byte-identity rests on this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/bounded_queue.h"
#include "dist/channel.h"
#include "dist/control.h"
#include "dist/ring.h"
#include "obs/registry.h"

namespace softborg::dist {

struct RouterConfig {
  // Per-shard egress queue bound; overflow sheds lowest-priority-first.
  std::size_t queue_capacity = 1024;
  std::size_t vnodes_per_shard = 64;
};

struct RouterStats {
  std::uint64_t received = 0;   // trace wires entering the router
  std::uint64_t forwarded = 0;  // traces sent to shard workers
  std::uint64_t shed = 0;       // queue overflow + dead-shard sheds
  // Pump rounds where a shard had queued work but zero credit (the worker
  // is the bottleneck and flow control is holding the line).
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t routing_failures = 0;  // malformed wires (summarize rejected)
  std::uint64_t unroutable = 0;        // unexpected message types from pods
  std::uint64_t credits_granted = 0;   // total credit received from workers
  // Peak of the fleet-total queued-trace count (summed across shards), so
  // bounded by num_shards * queue_capacity — the router's memory ceiling.
  std::size_t queue_depth_peak = 0;
  double stall_seconds = 0.0;          // wall time with >=1 shard stalled

  bool operator==(const RouterStats&) const = default;

  // queue_depth_peak publishes as the dist.queue_depth_peak gauge.
  static constexpr auto fields() {
    using S = RouterStats;
    return std::tuple{
        field(&S::received, "dist.received_total"),
        field(&S::forwarded, "dist.forwarded_total"),
        field(&S::shed, "dist.shed_total"),
        field(&S::backpressure_stalls, "dist.backpressure_stalls_total"),
        field(&S::routing_failures, "dist.routing_failures_total"),
        field(&S::unroutable, "dist.unroutable_total"),
        field(&S::credits_granted, "dist.credits_granted_total"),
        field(&S::queue_depth_peak),
        field(&S::stall_seconds, "dist.stall_us_total")};
  }
};

class TraceRouter {
 public:
  explicit TraceRouter(std::size_t num_shards, RouterConfig config = {});

  // --- wiring ---------------------------------------------------------------
  // Installs a shard link whose identity is already known (SimNet leg and
  // forked-worker drivers). The worker still announces its credit window
  // with kMsgHello; until that arrives the shard has zero credit.
  void connect_shard(std::size_t index, std::unique_ptr<Channel> ch);
  // Installs a pod ingress channel.
  void add_pod(std::unique_ptr<Channel> ch);
  // Socket leg: an accepted peer is anonymous until its first message —
  // kMsgHello marks a shard worker (new or restarted); anything else marks a
  // pod, and that first message is processed as pod traffic.
  void add_unidentified(std::unique_ptr<Channel> ch);

  // --- ingress --------------------------------------------------------------
  // Routes one encoded trace from an in-process source (bench_e13, the
  // --distributed fleet driver). Same path as pod-channel traffic. `ctx` is
  // the causal context that rode a v2 frame, if any; with tracing enabled
  // and no inbound context the router derives one from the wire header
  // (obs::causal_trace_id) so it becomes the chain's first recorded hop.
  void route_wire(Bytes wire, obs::TraceContext ctx = {});

  // --- the loop -------------------------------------------------------------
  // One round: poll every channel, admit arrivals, forward within credit,
  // account stalls, publish metrics. Drivers call this in their main loop
  // (with net.step() in between on the SimNet leg).
  void pump();

  // --- shutdown & snapshot protocol -----------------------------------------
  // Asks every live shard to drain its queue and report closing stats
  // (kMsgStats + kMsgTreeData + kMsgShutdown ack). Reports arrive via
  // pump(); poll all_reports_in().
  void broadcast_shutdown();
  bool all_reports_in() const;
  // Asks every live shard to write a durable snapshot now; workers ack with
  // an empty kMsgSnapshot.
  void request_snapshots();
  std::size_t snapshot_acks() const { return snapshot_acks_; }

  // A worker's closing report (payloads decoded by the driver: stats via
  // decode_worker_stats, trees via Hive::load_trees).
  struct WorkerReport {
    bool closed = false;  // kMsgShutdown ack seen
    Bytes stats_wire;
    Bytes trees_wire;
  };
  const std::vector<WorkerReport>& reports() const { return reports_; }

  // --- introspection --------------------------------------------------------
  const RouterStats& stats() const { return stats_; }
  std::size_t num_shards() const { return ring_.num_shards(); }
  bool shard_alive(std::size_t index) const;
  std::size_t shard_credit(std::size_t index) const;
  std::size_t shard_credit_window(std::size_t index) const;
  double shard_stall_seconds(std::size_t index) const;
  std::uint64_t shard_forwarded(std::size_t index) const;
  std::size_t total_queue_depth() const;
  // True when every queue is empty and no forwarded trace is awaiting a
  // credit ack — the pipe is drained end to end.
  bool quiescent() const;

  // Grows the ring by one shard (moves ~1/(n+1) of the key space to it);
  // the new worker connects and hellos like any other.
  void add_shard();

 private:
  struct ShardLink {
    std::unique_ptr<Channel> ch;  // null until connected
    BoundedTraceQueue queue;
    std::uint32_t credit = 0;
    std::uint32_t window = 0;  // announced by hello; 0 = not yet announced
    std::uint64_t forwarded = 0;
    std::uint64_t obs_published_forwarded = 0;
    bool stalled = false;
    double stall_started = 0.0;  // monotonic seconds, valid when stalled
    double stall_seconds = 0.0;  // cumulative, this shard only
    double obs_published_stall_seconds = 0.0;
    // Last-published per-shard gauge values, so publish_metrics only pays
    // the registry name lookup when something moved.
    std::int64_t obs_window = -1;
    std::int64_t obs_in_flight = -1;

    bool alive() const { return ch && ch->alive(); }
  };

  void handle_shard_delivery(std::size_t index, Delivery d);
  void poll_shard(std::size_t index);
  void forward(std::size_t index);
  void publish_metrics();

  RouterConfig config_;
  HashRing ring_;
  std::vector<ShardLink> shards_;
  std::vector<std::unique_ptr<Channel>> pods_;
  std::vector<std::unique_ptr<Channel>> unidentified_;
  std::vector<WorkerReport> reports_;
  std::size_t closed_reports_ = 0;
  std::size_t snapshot_acks_ = 0;
  RouterStats stats_;
  RouterStats obs_published_;  // publish_metrics() delta baseline
};

}  // namespace softborg::dist
