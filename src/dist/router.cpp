#include "dist/router.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/recorder.h"
#include "trace/codec.h"

namespace softborg::dist {

namespace {

double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceRouter::TraceRouter(std::size_t num_shards, RouterConfig config)
    : config_(config), ring_(num_shards, config.vnodes_per_shard) {
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(ShardLink{nullptr, BoundedTraceQueue(config_.queue_capacity)});
  }
  reports_.resize(num_shards);
}

void TraceRouter::connect_shard(std::size_t index, std::unique_ptr<Channel> ch) {
  SB_CHECK(index < shards_.size());
  shards_[index].ch = std::move(ch);
}

void TraceRouter::add_pod(std::unique_ptr<Channel> ch) {
  pods_.push_back(std::move(ch));
}

void TraceRouter::add_unidentified(std::unique_ptr<Channel> ch) {
  unidentified_.push_back(std::move(ch));
}

void TraceRouter::add_shard() {
  ring_.add_shard();
  shards_.push_back(ShardLink{nullptr, BoundedTraceQueue(config_.queue_capacity)});
  reports_.resize(shards_.size());
}

void TraceRouter::route_wire(Bytes wire, obs::TraceContext ctx) {
  stats_.received++;
  const auto summary = summarize_trace_wire(wire);
  if (!summary) {
    stats_.routing_failures++;
    return;
  }
  const std::size_t owner = ring_.owner(summary->program.value);
  if (obs::tracing_enabled()) {
    // A socket peer's v2 frame already carries the chain; otherwise this is
    // the first traced hop and the context comes from the wire header.
    if (!ctx.valid()) {
      ctx.trace_id =
          obs::causal_trace_id(summary->id.value, summary->program.value);
    }
    ctx = obs::with_hop(ctx, obs::Hop::kRouter);
    obs::Recorder::record(obs::EventKind::kRouterIngress, ctx,
                          static_cast<std::uint32_t>(owner));
  } else {
    ctx = {};
  }
  ShardLink& link = shards_[owner];
  if (link.ch && !link.ch->alive()) {
    // The owning worker is dead: degrade by shedding, never queue into a
    // black hole. (A null ch is different — the worker just hasn't connected
    // yet, so the queue buffers the head of traffic for it.)
    stats_.shed++;
    obs::Recorder::record(obs::EventKind::kQueueShed, ctx,
                          static_cast<std::uint32_t>(owner),
                          link.queue.depth());
    return;
  }
  const std::uint64_t shed_before = link.queue.shed_total();
  link.queue.push(trace_priority(*summary), std::move(wire), ctx);
  if (link.queue.shed_total() != shed_before) {
    stats_.shed += link.queue.shed_total() - shed_before;
    obs::Recorder::record(obs::EventKind::kQueueShed, ctx,
                          static_cast<std::uint32_t>(owner),
                          link.queue.depth());
  }
}

void TraceRouter::handle_shard_delivery(std::size_t index, Delivery d) {
  ShardLink& link = shards_[index];
  if (d.credit > 0) {
    link.credit += d.credit;
    stats_.credits_granted += d.credit;
  }
  switch (d.type) {
    case kMsgCredit:
      break;  // grant already applied above
    case kMsgHello: {
      const auto hello = decode_hello(d.payload);
      if (!hello) break;
      // Fresh connection state: anything in flight on the old link is gone,
      // the worker's window is whole again.
      link.window = hello->credit_window;
      link.credit = hello->credit_window;
      obs::Recorder::record(obs::EventKind::kHello, {},
                            static_cast<std::uint32_t>(index),
                            hello->mono_ns);
      break;
    }
    case kMsgStats:
      reports_[index].stats_wire = std::move(d.payload);
      break;
    case kMsgTreeData:
      reports_[index].trees_wire = std::move(d.payload);
      break;
    case kMsgShutdown:
      if (!reports_[index].closed) {
        reports_[index].closed = true;
        closed_reports_++;
      }
      break;
    case kMsgSnapshot:
      snapshot_acks_++;
      break;
    default:
      stats_.unroutable++;
      break;
  }
}

void TraceRouter::poll_shard(std::size_t index) {
  ShardLink& link = shards_[index];
  if (!link.ch) return;
  for (auto& d : link.ch->poll()) {
    handle_shard_delivery(index, std::move(d));
  }
}

void TraceRouter::forward(std::size_t index) {
  ShardLink& link = shards_[index];
  const bool alive = link.alive();
  if (!alive && link.ch && !link.queue.empty()) {
    // Dead worker: everything queued for it is shed in one stroke so the
    // router's memory never grows toward a shard that cannot drain.
    stats_.shed += link.queue.depth();
    link.queue.shed_all();
  }
  while (alive && link.credit > 0 && !link.queue.empty()) {
    auto item = link.queue.pop();
    obs::Recorder::record(obs::EventKind::kRouterForward, item->ctx,
                          static_cast<std::uint32_t>(index));
    link.ch->send(kMsgTrace, std::move(item->wire), 0, item->ctx);
    link.credit--;
    link.forwarded++;
    stats_.forwarded++;
  }
  // Backpressure: work queued, worker announced a window, window exhausted.
  // (window == 0 means the worker hasn't helloed yet — startup, not stall.)
  const bool stalled_now =
      alive && link.window > 0 && link.credit == 0 && !link.queue.empty();
  if (stalled_now && !link.stalled) {
    link.stalled = true;
    link.stall_started = mono_seconds();
    stats_.backpressure_stalls++;
    obs::Recorder::record(obs::EventKind::kCreditStall, {},
                          static_cast<std::uint32_t>(index),
                          link.queue.depth());
  } else if (!stalled_now && link.stalled) {
    link.stalled = false;
    const double stalled_for = mono_seconds() - link.stall_started;
    stats_.stall_seconds += stalled_for;
    link.stall_seconds += stalled_for;
    obs::Recorder::record(obs::EventKind::kCreditResume, {},
                          static_cast<std::uint32_t>(index),
                          static_cast<std::uint64_t>(stalled_for * 1e6));
  }
}

void TraceRouter::pump() {
  // 1. Anonymous peers: the first message tells us what they are.
  for (std::size_t i = 0; i < unidentified_.size();) {
    Channel* ch = unidentified_[i].get();
    auto deliveries = ch->poll();
    if (deliveries.empty()) {
      if (!ch->alive()) {
        unidentified_.erase(unidentified_.begin() +
                            static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
      continue;
    }
    auto moved = std::move(unidentified_[i]);
    unidentified_.erase(unidentified_.begin() + static_cast<std::ptrdiff_t>(i));
    if (deliveries.front().type == kMsgHello) {
      const auto hello = decode_hello(deliveries.front().payload);
      if (hello && hello->shard_index < shards_.size()) {
        const std::size_t index = hello->shard_index;
        shards_[index].ch = std::move(moved);  // new or restarted worker
        for (auto& d : deliveries) {
          handle_shard_delivery(index, std::move(d));
        }
      } else {
        stats_.unroutable++;  // bogus hello: drop the peer
      }
    } else {
      for (auto& d : deliveries) {
        if (d.type == kMsgTrace) {
          route_wire(std::move(d.payload), d.ctx);
        } else {
          stats_.unroutable++;
        }
      }
      pods_.push_back(std::move(moved));
    }
  }

  // 2. Shard workers first, so freshly granted credit is spendable in this
  // same round.
  for (std::size_t i = 0; i < shards_.size(); ++i) poll_shard(i);

  // 3. Pod ingress.
  for (std::size_t i = 0; i < pods_.size();) {
    Channel* ch = pods_[i].get();
    for (auto& d : ch->poll()) {
      if (d.type == kMsgTrace) {
        route_wire(std::move(d.payload), d.ctx);
      } else if (d.type != kMsgCredit) {
        stats_.unroutable++;
      }
    }
    if (!ch->alive()) {
      pods_.erase(pods_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // 4. Forward within credit; account stalls and dead-shard sheds.
  std::size_t depth = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    forward(i);
    depth += shards_[i].queue.depth();
    if (shards_[i].ch) shards_[i].ch->flush();
  }
  stats_.queue_depth_peak = std::max(stats_.queue_depth_peak, depth);

  publish_metrics();
}

void TraceRouter::broadcast_shutdown() {
  for (auto& link : shards_) {
    if (link.alive()) link.ch->send(kMsgShutdown, Bytes{});
  }
}

bool TraceRouter::all_reports_in() const {
  return closed_reports_ == shards_.size();
}

void TraceRouter::request_snapshots() {
  for (auto& link : shards_) {
    if (link.alive()) link.ch->send(kMsgSnapshot, Bytes{});
  }
}

bool TraceRouter::shard_alive(std::size_t index) const {
  return index < shards_.size() && shards_[index].alive();
}

std::size_t TraceRouter::shard_credit(std::size_t index) const {
  return index < shards_.size() ? shards_[index].credit : 0;
}

std::size_t TraceRouter::shard_credit_window(std::size_t index) const {
  return index < shards_.size() ? shards_[index].window : 0;
}

double TraceRouter::shard_stall_seconds(std::size_t index) const {
  if (index >= shards_.size()) return 0.0;
  const ShardLink& link = shards_[index];
  double total = link.stall_seconds;
  if (link.stalled) total += mono_seconds() - link.stall_started;
  return total;
}

std::uint64_t TraceRouter::shard_forwarded(std::size_t index) const {
  return index < shards_.size() ? shards_[index].forwarded : 0;
}

std::size_t TraceRouter::total_queue_depth() const {
  std::size_t depth = 0;
  for (const auto& link : shards_) depth += link.queue.depth();
  return depth;
}

bool TraceRouter::quiescent() const {
  if (!unidentified_.empty()) return false;
  for (const auto& link : shards_) {
    if (!link.queue.empty()) return false;
    // Credit equal to the announced window means every forwarded trace has
    // been consumed and acknowledged.
    if (link.alive() && link.window > 0 && link.credit != link.window) {
      return false;
    }
  }
  return true;
}

void TraceRouter::publish_metrics() {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  // Cached handles, looked up once: pump() runs every loop iteration.
  static const obs::CounterSet<RouterStats> counters;
  static obs::Gauge& depth = reg.gauge("dist.queue_depth");
  static obs::Gauge& depth_peak = reg.gauge("dist.queue_depth_peak");
  counters.publish(stats_, obs_published_);
  depth.set(static_cast<std::int64_t>(total_queue_depth()));
  depth_peak.set(static_cast<std::int64_t>(stats_.queue_depth_peak));
  // Per-shard ingest rates and flow-control health. Registry lookups are
  // string-keyed, so each series publishes only when its value moved.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardLink& link = shards_[i];
    const std::string prefix = "dist.shard" + std::to_string(i);
    if (link.forwarded != link.obs_published_forwarded) {
      reg.counter(prefix + ".forwarded_total")
          .add(link.forwarded - link.obs_published_forwarded);
      link.obs_published_forwarded = link.forwarded;
    }
    // Credit-window occupancy: window is what the worker announced,
    // in-flight is how much of it the router has spent and not yet had
    // re-granted (the live backpressure signal).
    const auto window = static_cast<std::int64_t>(link.window);
    const auto in_flight =
        static_cast<std::int64_t>(link.window) -
        static_cast<std::int64_t>(std::min<std::uint32_t>(link.credit,
                                                          link.window));
    if (window != link.obs_window) {
      reg.gauge(prefix + ".credit_window").set(window);
      link.obs_window = window;
    }
    if (in_flight != link.obs_in_flight) {
      reg.gauge(prefix + ".credit_in_flight").set(in_flight);
      link.obs_in_flight = in_flight;
    }
    if (link.stall_seconds != link.obs_published_stall_seconds) {
      const auto now_us = static_cast<std::uint64_t>(link.stall_seconds * 1e6);
      const auto before_us =
          static_cast<std::uint64_t>(link.obs_published_stall_seconds * 1e6);
      if (now_us > before_us) {
        reg.counter(prefix + ".stall_us_total").add(now_us - before_us);
      }
      link.obs_published_stall_seconds = link.stall_seconds;
    }
  }
}

}  // namespace softborg::dist
