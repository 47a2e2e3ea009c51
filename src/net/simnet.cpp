#include "net/simnet.h"

#include <utility>

#include "common/check.h"
#include "obs/registry.h"

namespace softborg {

Endpoint SimNet::add_endpoint() {
  inboxes_.emplace_back();
  return static_cast<Endpoint>(inboxes_.size() - 1);
}

bool SimNet::blocked(Endpoint a, Endpoint b) const {
  if (isolated_.count(a) != 0 || isolated_.count(b) != 0) return true;
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  return partitions_.count(key) != 0;
}

void SimNet::send(Endpoint from, Endpoint to, std::uint32_t type,
                  Bytes payload) {
  SB_CHECK(from < inboxes_.size() && to < inboxes_.size());
  stats_.sent++;
  stats_.bytes_sent += payload.size();
  if (blocked(from, to)) {
    stats_.blocked_at_send++;
    return;
  }
  if (config_.drop_prob > 0 && rng_.next_bool(config_.drop_prob)) {
    stats_.dropped++;
    return;
  }
  auto enqueue = [&](Bytes body) {
    Message m;
    m.from = from;
    m.to = to;
    m.type = type;
    m.payload = std::move(body);
    m.sent_tick = now_;
    const std::uint32_t span =
        config_.max_latency_ticks - config_.min_latency_ticks;
    m.deliver_tick = now_ + config_.min_latency_ticks +
                     (span > 0 ? rng_.next_below(span + 1) : 0);
    in_flight_[m.deliver_tick].push_back(std::move(m));
    queued_++;
  };
  if (config_.dup_prob > 0 && rng_.next_bool(config_.dup_prob)) {
    stats_.duplicated++;
    stats_.payloads_copied++;  // the manufactured duplicate body
    enqueue(payload);
  }
  enqueue(std::move(payload));
}

void SimNet::tick() {
  now_++;
  auto end = in_flight_.upper_bound(now_);
  for (auto it = in_flight_.begin(); it != end; ++it) {
    queued_ -= static_cast<std::int64_t>(it->second.size());
    for (Message& m : it->second) {
      if (blocked(m.from, m.to)) {
        stats_.dropped_in_flight++;
        continue;  // partitions that formed mid-flight eat the message
      }
      stats_.delivered++;
      inboxes_[m.to].push_back(std::move(m));
    }
  }
  in_flight_.erase(in_flight_.begin(), end);
  publish_metrics();
}

// Network telemetry is process-wide: every SimNet instance feeds the same
// counters, so a fleet with several nets (tests, nested worlds) reports
// aggregate traffic. `net.in_flight` is a gauge of messages currently queued
// for delivery — a depth, not a count, so it is exported but excluded from
// the deterministic counter surface.
void SimNet::publish_metrics() {
  if (!obs::enabled()) {
    // Kill switch: drop the outstanding deltas instead of deferring them.
    obs_published_ = stats_;
    obs_published_depth_ = queued_;
    return;
  }
  static const obs::CounterSet<NetStats> counters;
  static obs::Gauge& in_flight =
      obs::MetricsRegistry::global().gauge("net.in_flight");
  counters.publish(stats_, obs_published_);
  if (queued_ != obs_published_depth_) {
    // add() rather than set(): concurrent nets aggregate their depths.
    in_flight.add(queued_ - obs_published_depth_);
    obs_published_depth_ = queued_;
  }
}

namespace {

void put_message(Bytes& out, const Message& m) {
  put_varint(out, m.from);
  put_varint(out, m.to);
  put_varint(out, m.type);
  put_blob(out, m.payload);
  put_varint(out, m.sent_tick);
  put_varint(out, m.deliver_tick);
}

bool get_message(StateReader& r, std::size_t n_endpoints, Message& m) {
  if (n_endpoints == 0) {  // a message with no endpoints cannot be valid
    r.fail();
    return false;
  }
  m.from = r.u64_max(n_endpoints - 1);
  m.to = r.u64_max(n_endpoints - 1);
  m.type = r.u32();
  r.blob(m.payload);
  m.sent_tick = r.u64();
  m.deliver_tick = r.u64();
  return r.ok();
}

}  // namespace

void SimNet::save_state(Bytes& out) const {
  std::uint64_t rng_state[4];
  rng_.export_state(rng_state);
  for (const std::uint64_t word : rng_state) put_varint(out, word);
  put_varint(out, now_);
  put_varint(out, inboxes_.size());
  for (const auto& inbox : inboxes_) {
    put_varint(out, inbox.size());
    for (const Message& m : inbox) put_message(out, m);
  }
  put_varint(out, in_flight_.size());
  for (const auto& [tick, msgs] : in_flight_) {
    put_varint(out, tick);
    put_varint(out, msgs.size());
    for (const Message& m : msgs) put_message(out, m);
  }
  put_varint(out, partitions_.size());
  for (const auto& [a, b] : partitions_) {
    put_varint(out, a);
    put_varint(out, b);
  }
  put_varint(out, isolated_.size());
  for (const Endpoint ep : isolated_) put_varint(out, ep);
  encode_fields(out, stats_);
}

bool SimNet::load_state(StateReader& r) {
  std::uint64_t rng_state[4];
  for (std::uint64_t& word : rng_state) word = r.u64();
  rng_.import_state(rng_state);
  now_ = r.u64();
  const std::uint64_t n_endpoints = r.count();
  inboxes_.assign(n_endpoints, {});
  for (auto& inbox : inboxes_) {
    const std::uint64_t n = r.count(6);
    inbox.resize(n);
    for (Message& m : inbox) {
      if (!get_message(r, n_endpoints, m)) return false;
    }
  }
  in_flight_.clear();
  queued_ = 0;
  const std::uint64_t n_buckets = r.count(2);
  std::uint64_t prev_tick = 0;
  for (std::uint64_t i = 0; i < n_buckets && r.ok(); ++i) {
    const std::uint64_t tick = r.u64();
    if (i > 0 && tick <= prev_tick) r.fail();  // map keys strictly ascend
    prev_tick = tick;
    const std::uint64_t n = r.count(6);
    auto& bucket = in_flight_[tick];
    bucket.resize(n);
    for (Message& m : bucket) {
      if (!get_message(r, n_endpoints, m)) return false;
    }
    queued_ += static_cast<std::int64_t>(n);
  }
  partitions_.clear();
  const std::uint64_t n_partitions = r.count(2);
  for (std::uint64_t i = 0; i < n_partitions && r.ok(); ++i) {
    const Endpoint a = r.u64();
    const Endpoint b = r.u64();
    if (a >= b || !partitions_.emplace(a, b).second) r.fail();
  }
  isolated_.clear();
  const std::uint64_t n_isolated = r.count();
  for (std::uint64_t i = 0; i < n_isolated && r.ok(); ++i) {
    if (!isolated_.insert(r.u64()).second) r.fail();
  }
  decode_fields(r, stats_);
  if (!r.ok()) return false;
  // The saving run already published these totals into the process-global
  // registry; baseline here so the restored deltas are not re-published.
  obs_published_ = stats_;
  obs_published_depth_ = queued_;
  return true;
}

std::vector<Message> SimNet::drain(Endpoint ep) {
  SB_CHECK(ep < inboxes_.size());
  // Move the inbox out wholesale — draining used to copy every payload.
  return std::exchange(inboxes_[ep], {});
}

void SimNet::set_partitioned(Endpoint a, Endpoint b, bool blocked_now) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (blocked_now) {
    partitions_.insert(key);
  } else {
    partitions_.erase(key);
  }
}

void SimNet::set_isolated(Endpoint ep, bool isolated) {
  if (isolated) {
    isolated_.insert(ep);
  } else {
    isolated_.erase(ep);
  }
}

}  // namespace softborg
