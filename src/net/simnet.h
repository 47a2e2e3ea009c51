// Simulated unreliable network connecting pods and hive nodes.
//
// The paper's hive nodes are "mostly end-user machines communicating over a
// potentially unreliable network" (§4), and pods relay by-products "over
// the Internet" (§3). SimNet models that: tick-driven delivery with
// per-message random latency, loss, duplication, and pairwise partitions —
// all seeded and deterministic so whole-fleet experiments reproduce.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "common/state_wire.h"
#include "common/varint.h"

namespace softborg {

// Endpoints are small dense indices handed out by SimNet::add_endpoint().
using Endpoint = std::uint64_t;

struct Message {
  Endpoint from = 0;
  Endpoint to = 0;
  std::uint32_t type = 0;
  Bytes payload;
  std::uint64_t sent_tick = 0;
  std::uint64_t deliver_tick = 0;
};

struct NetConfig {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  std::uint32_t min_latency_ticks = 1;
  std::uint32_t max_latency_ticks = 3;
  std::uint64_t seed = 1;

  static constexpr auto fields() {
    using C = NetConfig;
    return std::tuple{field(&C::drop_prob), field(&C::dup_prob),
                      field(&C::min_latency_ticks),
                      field(&C::max_latency_ticks), field(&C::seed)};
  }
};

struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  // Partition effects, counted once per message copy: refused at send()
  // because the pair was already partitioned, vs. eaten at delivery time by
  // a partition that formed while the message was in flight. (Formerly one
  // `blocked_by_partition` counter incremented in both places, so a single
  // message could be counted twice.)
  std::uint64_t blocked_at_send = 0;
  std::uint64_t dropped_in_flight = 0;
  std::uint64_t bytes_sent = 0;
  // Payload buffers copied inside the transport. The only legitimate copy
  // is the extra body a probabilistic duplication manufactures; every other
  // hop (send → in-flight → inbox → drain, including the router → shard
  // re-send) moves the one buffer end-to-end. net_test pins this at zero
  // for dup-free traffic by tracking a payload's data pointer across the
  // whole route.
  std::uint64_t payloads_copied = 0;

  bool operator==(const NetStats&) const = default;

  static constexpr auto fields() {
    using S = NetStats;
    return std::tuple{
        field(&S::sent, "net.sent_total"),
        field(&S::delivered, "net.delivered_total"),
        field(&S::dropped, "net.dropped_total"),
        field(&S::duplicated, "net.duplicated_total"),
        field(&S::blocked_at_send, "net.blocked_at_send_total"),
        field(&S::dropped_in_flight, "net.dropped_in_flight_total"),
        field(&S::bytes_sent, "net.bytes_sent_total"),
        field(&S::payloads_copied, "net.payloads_copied_total")};
  }
};

class SimNet {
 public:
  explicit SimNet(NetConfig config = {})
      : config_(config), rng_(config.seed) {}

  Endpoint add_endpoint();
  std::size_t num_endpoints() const { return inboxes_.size(); }

  // Queues a message; it may be dropped, duplicated, or delayed. The net
  // owns the payload from here on and moves it end to end (see
  // NetStats::payloads_copied).
  void send(Endpoint from, Endpoint to, std::uint32_t type, Bytes payload);

  // Advances time by one tick, moving due messages into inboxes. Nothing
  // moves between ticks.
  void tick();
  std::uint64_t now() const { return now_; }

  // Removes and returns everything delivered to `ep` so far, in delivery
  // order.
  std::vector<Message> drain(Endpoint ep);

  // Bidirectional partition control between two endpoints.
  void set_partitioned(Endpoint a, Endpoint b, bool blocked);
  // Isolates an endpoint from everyone (node churn/failure).
  void set_isolated(Endpoint ep, bool isolated);

  const NetStats& stats() const { return stats_; }

  // Durable-store serialization of all mutable state (endpoints, clock, rng,
  // inboxes, in-flight queues, partitions, stats). Config is not persisted —
  // the resuming World reconstructs the net with the same NetConfig, then
  // overwrites its state. load_state replaces this net's state wholesale and
  // re-baselines metric publication at the restored stats (the deltas were
  // already published by the run that saved); on false the net is
  // unspecified — discard it.
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);

 private:
  bool blocked(Endpoint a, Endpoint b) const;
  // Pushes the stats_ deltas accumulated since the last publication into
  // the process-wide registry (the `net.*` counters and the in-flight
  // gauge). Called once per tick() — the network only makes progress at
  // ticks, so counters advance at tick boundaries and the per-message hot
  // path carries no telemetry cost.
  void publish_metrics();

  NetConfig config_;
  Rng rng_;
  std::uint64_t now_ = 0;
  std::vector<std::vector<Message>> inboxes_;
  // In-flight messages bucketed by delivery tick. Within a tick, messages
  // deliver in send order (push_back / in-order walk), exactly like the
  // multimap this replaces — but with one tree node per distinct tick
  // instead of one per message, which matters when a pump round moves
  // thousands of messages.
  std::map<std::uint64_t, std::vector<Message>> in_flight_;
  std::set<std::pair<Endpoint, Endpoint>> partitions_;
  std::set<Endpoint> isolated_;
  NetStats stats_;
  NetStats obs_published_;          // publish_metrics() delta baseline
  std::int64_t queued_ = 0;         // messages currently in in_flight_
  std::int64_t obs_published_depth_ = 0;
};

}  // namespace softborg
