// The multi-process distributed hive (ISSUE 9): consistent-hash routing,
// bounded ingress with priority shedding, credit-based backpressure, and
// the socket transport — held to the repo's differential standard. The
// SimNet leg (deterministic in-process test double) and the socket leg
// (real fork()ed shard processes over unix-domain sockets) run the same
// router/worker code over the same traffic and must produce byte-identical
// per-shard trees and equal HiveStats — including across worker
// ingest-thread counts, and across a SIGKILL + restart-from-snapshot of a
// shard process.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/rng.h"
#include "common/state_wire.h"
#include "dist/bounded_queue.h"
#include "dist/channel.h"
#include "dist/control.h"
#include "dist/ring.h"
#include "dist/router.h"
#include "dist/socket.h"
#include "dist/worker.h"
#include "minivm/corpus.h"
#include "minivm/interp.h"
#include "net/simnet.h"
#include "trace/codec.h"
#include "tree/tree_codec.h"

namespace softborg::dist {
namespace {

namespace fs = std::filesystem;

// --- consistent-hash ring ---------------------------------------------------

TEST(HashRing, SpreadsKeysRoughlyEvenly) {
  HashRing ring(4);
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t key = 0; key < 40'000; ++key) hits[ring.owner(key)]++;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], 5'000u) << "shard " << s;  // perfect would be 10'000
    EXPECT_LT(hits[s], 15'000u) << "shard " << s;
  }
}

TEST(HashRing, OwnerIsDeterministic) {
  HashRing a(8), b(8);
  for (std::uint64_t key = 0; key < 1'000; ++key) {
    EXPECT_EQ(a.owner(key), b.owner(key));
  }
}

TEST(HashRing, AddShardMovesOnlyToTheNewcomer) {
  // The reason the ring exists: growing the fleet re-keys ~1/(n+1) of the
  // space, and every moved key moves TO the new shard — never between old
  // shards (which would invalidate trees the old shards already own).
  HashRing ring(4);
  std::vector<std::size_t> before;
  for (std::uint64_t key = 0; key < 20'000; ++key) {
    before.push_back(ring.owner(key));
  }
  ring.add_shard();
  ASSERT_EQ(ring.num_shards(), 5u);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 20'000; ++key) {
    const std::size_t now = ring.owner(key);
    if (now != before[key]) {
      EXPECT_EQ(now, 4u) << "key " << key << " moved between old shards";
      moved++;
    }
  }
  EXPECT_GT(moved, 20'000 / 10);  // ~1/5 of the space, generously bracketed
  EXPECT_LT(moved, 20'000 / 3);
}

// --- bounded queue ----------------------------------------------------------

Bytes tag(std::uint8_t v) { return Bytes{v}; }

TEST(BoundedQueue, FifoDispatchRegardlessOfPriority) {
  // Priority affects only shedding; admitted traffic keeps arrival order
  // (the socket-vs-SimNet differential depends on this).
  BoundedTraceQueue q(8);
  q.push(TracePriority::kRoutine, tag(1));
  q.push(TracePriority::kFailure, tag(2));
  q.push(TracePriority::kGuided, tag(3));
  EXPECT_EQ(q.pop()->wire, tag(1));
  EXPECT_EQ(q.pop()->wire, tag(2));
  EXPECT_EQ(q.pop()->wire, tag(3));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ShedsLowestPriorityWhenFull) {
  BoundedTraceQueue q(2);
  q.push(TracePriority::kRoutine, tag(1));
  q.push(TracePriority::kRoutine, tag(2));
  // A failure trace arrives at a full queue: the NEWEST routine entry is
  // displaced (FIFO within the surviving class), the failure is admitted.
  q.push(TracePriority::kFailure, tag(3));
  EXPECT_EQ(q.shed_total(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop()->wire, tag(1));
  EXPECT_EQ(q.pop()->wire, tag(3));
}

TEST(BoundedQueue, ArrivalIsShedWhenItIsTheLeastValuable) {
  BoundedTraceQueue q(2);
  q.push(TracePriority::kFailure, tag(1));
  q.push(TracePriority::kGuided, tag(2));
  q.push(TracePriority::kRoutine, tag(3));  // outranked by everything queued
  EXPECT_EQ(q.shed_total(), 1u);
  EXPECT_EQ(q.pop()->wire, tag(1));
  EXPECT_EQ(q.pop()->wire, tag(2));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, DepthNeverExceedsCapacity) {
  Rng rng(7);
  BoundedTraceQueue q(16);
  for (int i = 0; i < 1'000; ++i) {
    q.push(static_cast<TracePriority>(rng.next_below(3)),
           tag(static_cast<std::uint8_t>(i)));
    EXPECT_LE(q.depth(), 16u);
    if (rng.next_below(4) == 0) q.pop();
  }
  EXPECT_LE(q.max_depth(), 16u);
  EXPECT_GT(q.shed_total(), 0u);
}

// --- control codecs ---------------------------------------------------------

TEST(Control, HelloRoundTrips) {
  const HelloMsg m{3, 512, true};
  const auto back = decode_hello(encode_hello(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
  EXPECT_FALSE(decode_hello(Bytes{0x80}).has_value());  // truncated varint
  Bytes trailing = encode_hello(m);
  trailing.push_back(0);
  EXPECT_FALSE(decode_hello(trailing).has_value());
}

TEST(Control, WorkerStatsRoundTrip) {
  WorkerStatsMsg m;
  m.shard_index = 2;
  m.ingested = 12'345;
  m.shed = 67;
  m.queue_max_depth = 890;
  m.batches = 99;
  m.snapshots_written = 3;
  m.hive.traces_ingested = 12'345;
  m.hive.bugs_found = 17;
  m.hive.new_paths = 4'242;
  const auto back = decode_worker_stats(encode_worker_stats(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
  EXPECT_FALSE(decode_worker_stats(Bytes{1, 2}).has_value());
  Bytes trailing = encode_worker_stats(m);
  trailing.push_back(0);
  EXPECT_FALSE(decode_worker_stats(trailing).has_value());
}

// --- fleet harness ----------------------------------------------------------

std::vector<Bytes> make_workload(const std::vector<CorpusEntry>& corpus,
                                 std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> wires;
  wires.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
    ExecConfig cfg;
    for (const auto& d : entry.domains) {
      cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    cfg.seed = seed * 1'000'000 + i;
    auto result = execute(entry.program, cfg);
    result.trace.id = TraceId(i + 1);
    result.trace.day = i % 7;
    wires.push_back(encode_trace(result.trace));
  }
  return wires;
}

struct LegResult {
  std::vector<Bytes> trees;             // per shard, Hive::save_trees wire
  std::vector<WorkerStatsMsg> stats;    // per shard
  RouterStats router;
};

void expect_equivalent(const LegResult& a, const LegResult& b) {
  // The comparison surface of ISSUE 9: byte-identical trees and equal
  // HiveStats per shard, modulo timing (batch counts and queue depths are
  // scheduling artifacts and deliberately excluded).
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i], b.trees[i]) << "shard " << i << " trees diverge";
    EXPECT_TRUE(a.stats[i].hive == b.stats[i].hive) << "shard " << i;
    EXPECT_EQ(a.stats[i].ingested, b.stats[i].ingested) << "shard " << i;
    EXPECT_EQ(a.stats[i].shed, b.stats[i].shed) << "shard " << i;
  }
  EXPECT_EQ(a.router.received, b.router.received);
  EXPECT_EQ(a.router.forwarded, b.router.forwarded);
  EXPECT_EQ(a.router.shed, b.router.shed);
}

LegResult collect_reports(TraceRouter& router) {
  LegResult out;
  out.router = router.stats();
  for (const auto& report : router.reports()) {
    EXPECT_TRUE(report.closed);
    out.trees.push_back(report.trees_wire);
    const auto stats = decode_worker_stats(report.stats_wire);
    EXPECT_TRUE(stats.has_value());
    out.stats.push_back(stats.value_or(WorkerStatsMsg{}));
  }
  return out;
}

// Runs the full protocol in-process over SimNet with fixed latency (the
// deterministic config: equal latency preserves send order, so per-shard
// ingestion sequences match the order-preserving socket transport).
LegResult run_simnet_leg(const std::vector<CorpusEntry>& corpus,
                         const std::vector<Bytes>& wires,
                         std::size_t num_shards, std::size_t ingest_threads,
                         RouterConfig router_config = {},
                         WorkerConfig worker_template = {}) {
  NetConfig net_config;
  net_config.min_latency_ticks = 1;
  net_config.max_latency_ticks = 1;
  SimNet net(net_config);
  TraceRouter router(num_shards, router_config);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<SimNetChannel>> worker_ch;
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto [router_side, worker_side] = make_simnet_channel_pair(net);
    router.connect_shard(i, std::move(router_side));
    worker_ch.push_back(std::move(worker_side));
    WorkerConfig cfg = worker_template;
    cfg.hive.ingest_threads = ingest_threads;
    workers.push_back(std::make_unique<ShardWorker>(i, &corpus, cfg));
    workers.back()->send_hello(*worker_ch.back());
  }
  auto round = [&] {
    net.tick();
    router.pump();
    for (std::size_t i = 0; i < num_shards; ++i) {
      workers[i]->pump(*worker_ch[i]);
    }
  };
  std::size_t sent = 0;
  while (sent < wires.size()) {
    const std::size_t burst = std::min<std::size_t>(64, wires.size() - sent);
    for (std::size_t i = 0; i < burst; ++i) {
      router.route_wire(wires[sent + i]);
    }
    sent += burst;
    round();
  }
  for (int i = 0; i < 10'000 && !router.quiescent(); ++i) round();
  EXPECT_TRUE(router.quiescent());
  router.broadcast_shutdown();
  for (int i = 0; i < 10'000 && !router.all_reports_in(); ++i) round();
  EXPECT_TRUE(router.all_reports_in());
  return collect_reports(router);
}

// --- SimNet-leg determinism -------------------------------------------------

TEST(DistFleet, ByteIdenticalAcrossWorkerThreadCounts) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 256, 11);
  const auto baseline = run_simnet_leg(corpus, wires, 4, 1);
  EXPECT_GT(baseline.router.forwarded, 0u);
  EXPECT_EQ(baseline.router.shed, 0u);
  std::uint64_t total = 0;
  for (const auto& s : baseline.stats) total += s.ingested;
  EXPECT_EQ(total, wires.size());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    const auto run = run_simnet_leg(corpus, wires, 4, threads);
    expect_equivalent(baseline, run);
  }
}

TEST(DistFleet, RepeatRunsAreByteIdentical) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 128, 23);
  expect_equivalent(run_simnet_leg(corpus, wires, 2, 2),
                    run_simnet_leg(corpus, wires, 2, 2));
}

// Every closing tree of a shard (a Hive::save_trees wire) must survive the
// legacy v1 tree wire: decode, re-encode under kV1, decode again, with
// operator== holding throughout and the v1 rendering itself byte-stable.
void expect_v1_round_trip(const Bytes& trees_wire, std::size_t shard) {
  StateReader r(trees_wire);
  const std::uint64_t n = r.count(2);
  for (std::uint64_t k = 0; k < n && r.ok(); ++k) {
    const std::uint64_t program = r.u64();
    Bytes wire;
    r.blob(wire);
    const auto v2 = decode_tree(wire);
    ASSERT_TRUE(v2.has_value()) << "shard " << shard << " program " << program;
    const Bytes v1_wire = v2->encode(ExecTree::WireVersion::kV1);
    const auto v1 = decode_tree(v1_wire);
    ASSERT_TRUE(v1.has_value()) << "shard " << shard << " program " << program;
    EXPECT_TRUE(*v1 == *v2) << "shard " << shard << " program " << program;
    EXPECT_EQ(v1->encode(ExecTree::WireVersion::kV1), v1_wire);
  }
  EXPECT_TRUE(r.done()) << "shard " << shard << " trees wire malformed";
}

// The serial oracle: each shard of a batch-ingesting fleet must equal a
// fresh ShardWorker replica whose hive took, one wire at a time through
// ingest_bytes, exactly the wires the ring assigns to that shard — so the
// ring delivers every trace to its owner, the batch pipeline behind the
// router equals serial ingestion, and one shard is just a central hive.
TEST(DistFleet, ShardsMatchSerialOraclePerRingPartition) {
  const auto corpus = standard_corpus();
  auto wires = make_workload(corpus, 384, 3);
  wires.push_back(wires[10]);  // duplicates: dropped by the owning shard
  wires.insert(wires.begin() + 100, Bytes{0xde, 0xad});  // malformed
  wires.push_back(wires[250]);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    const LegResult leg = run_simnet_leg(corpus, wires, shards, 2);
    EXPECT_EQ(leg.router.received, wires.size());
    EXPECT_EQ(leg.router.routing_failures, 1u);
    EXPECT_EQ(leg.router.forwarded, wires.size() - 1);
    EXPECT_EQ(leg.router.shed, 0u);

    HashRing ring(shards);
    std::vector<std::unique_ptr<ShardWorker>> replicas;
    for (std::size_t i = 0; i < shards; ++i) {
      replicas.push_back(std::make_unique<ShardWorker>(i, &corpus,
                                                       WorkerConfig{}));
    }
    for (const Bytes& wire : wires) {
      const auto summary = summarize_trace_wire(wire);
      if (!summary) continue;  // the router never forwards it
      replicas[ring.owner(summary->program.value)]->hive().ingest_bytes(wire);
    }

    std::uint64_t ingested = 0, duplicates = 0;
    ASSERT_EQ(leg.trees.size(), shards);
    for (std::size_t i = 0; i < shards; ++i) {
      Bytes oracle_trees;
      replicas[i]->hive().save_trees(oracle_trees);
      EXPECT_EQ(leg.trees[i], oracle_trees) << "shard " << i;
      EXPECT_TRUE(leg.stats[i].hive == replicas[i]->hive().stats())
          << "shard " << i;
      expect_v1_round_trip(leg.trees[i], i);
      ingested += leg.stats[i].hive.traces_ingested;
      duplicates += leg.stats[i].hive.duplicates_dropped;
    }
    EXPECT_EQ(ingested, 384u);
    EXPECT_EQ(duplicates, 2u);
  }
}

// Ingress the router cannot own is counted, never forwarded: a malformed
// trace wire as a routing failure, a pod message of any other type as
// unroutable.
TEST(DistFleet, RouterCountsMalformedAndNonTraceIngress) {
  const auto corpus = standard_corpus();
  NetConfig net_config;
  net_config.min_latency_ticks = 1;
  net_config.max_latency_ticks = 1;
  SimNet net(net_config);
  TraceRouter router(1);
  auto [router_side, worker_side] = make_simnet_channel_pair(net);
  router.connect_shard(0, std::move(router_side));
  ShardWorker worker(0, &corpus, WorkerConfig{});
  worker.send_hello(*worker_side);
  auto [router_pod_side, pod] = make_simnet_channel_pair(net);
  router.add_pod(std::move(router_pod_side));

  pod->send(kMsgGuidance, Bytes{1, 2, 3});
  pod->send(kMsgWorkRequest, Bytes{});
  pod->send(kMsgTrace, Bytes{0xff, 0x00});
  pod->send(kMsgTrace, make_workload(corpus, 1, 5).front());
  for (int i = 0; i < 10; ++i) {
    net.tick();
    router.pump();
    worker.pump(*worker_side);
  }
  const RouterStats& s = router.stats();
  EXPECT_EQ(s.unroutable, 2u);
  EXPECT_EQ(s.routing_failures, 1u);
  EXPECT_EQ(s.received, 2u);  // trace wires only
  EXPECT_EQ(s.forwarded, 1u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_TRUE(router.quiescent());
  EXPECT_EQ(worker.hive().stats().traces_ingested, 1u);
  EXPECT_EQ(worker.hive().stats().decode_failures, 0u);
}

// --- backpressure & shedding ------------------------------------------------

TEST(DistFleet, OverloadShedsAndStaysBounded) {
  // 2x-overload shape: a tiny queue and a worker that stops pumping. The
  // router must stall on credit, cap the queue, shed the excess, and still
  // finish the run (bounded memory, no wedge).
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 300, 31);
  NetConfig net_config;
  net_config.min_latency_ticks = 1;
  net_config.max_latency_ticks = 1;
  SimNet net(net_config);
  RouterConfig router_config;
  router_config.queue_capacity = 32;
  TraceRouter router(1, router_config);
  auto [router_side, worker_side] = make_simnet_channel_pair(net);
  router.connect_shard(0, std::move(router_side));
  WorkerConfig worker_config;
  worker_config.credit_window = 8;
  ShardWorker worker(0, &corpus, worker_config);
  worker.send_hello(*worker_side);
  // Let the hello land, then firehose without letting the worker run.
  for (int i = 0; i < 3; ++i) {
    net.tick();
    router.pump();
  }
  for (const auto& wire : wires) {
    router.route_wire(wire);
    router.pump();
    net.tick();
    EXPECT_LE(router.total_queue_depth(), 32u);
  }
  const auto& s = router.stats();
  EXPECT_GT(s.shed, 0u);
  EXPECT_GT(s.backpressure_stalls, 0u);
  EXPECT_LE(s.queue_depth_peak, 32u);
  EXPECT_LE(s.forwarded, 8u);  // the credit window held the line
  // The worker wakes up: the fleet drains what was admitted and completes.
  for (int i = 0; i < 10'000 && !router.quiescent(); ++i) {
    net.tick();
    router.pump();
    worker.pump(*worker_side);
  }
  EXPECT_TRUE(router.quiescent());
  EXPECT_EQ(s.received, wires.size());
  EXPECT_EQ(s.forwarded + s.shed, s.received);
}

// --- worker durability -----------------------------------------------------

// A restarted worker resumes only a snapshot taken under its own hive config
// and corpus: anything else would resume silently and diverge.
TEST(DistWorker, ResumeRefusesAnotherHiveConfigOrCorpus) {
  const auto corpus = standard_corpus();
  const std::string dir =
      (fs::temp_directory_path() /
       ("sb_dist_worker_resume_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  WorkerConfig config;
  config.snapshot_dir = dir;
  {
    ShardWorker saver(1, &corpus, config);
    saver.hive().ingest_batch(make_workload(corpus, 64, 5));
    ASSERT_EQ(saver.hive().stats().traces_ingested, 64u);
    ASSERT_TRUE(saver.write_snapshot());
  }
  const auto resumes = [&](const std::vector<CorpusEntry>& c,
                           const WorkerConfig& cfg) {
    ShardWorker worker(1, &c, cfg);
    const bool resumed = worker.try_resume();
    // A refused snapshot leaves the worker cold.
    EXPECT_EQ(worker.hive().stats().traces_ingested, resumed ? 64u : 0u);
    return resumed;
  };
  EXPECT_TRUE(resumes(corpus, config));
  WorkerConfig skewed = config;
  skewed.hive.auto_fix_threshold = 0.5;
  EXPECT_FALSE(resumes(corpus, skewed));
  skewed = config;
  skewed.hive.proof_budget.max_gap_closures++;
  EXPECT_FALSE(resumes(corpus, skewed));
  // Every saved program id still exists in the larger corpus.
  auto larger = corpus;
  larger.push_back(make_config_space(3));
  EXPECT_FALSE(resumes(larger, config));
  // ingest_threads is exempt from the fingerprint: results do not depend on
  // it.
  WorkerConfig threads = config;
  threads.hive.ingest_threads = 2;
  EXPECT_TRUE(resumes(corpus, threads));
  fs::remove_all(dir);
}

// --- socket transport -------------------------------------------------------

std::string test_socket_addr(const char* tag) {
  return "unix:" + (fs::temp_directory_path() /
                    ("sb_dist_" + std::string(tag) + "_" +
                     std::to_string(::getpid()) + ".sock"))
                       .string();
}

TEST(SocketChannel, RoundTripsOverUnixSocket) {
  const std::string addr = test_socket_addr("rt");
  Listener listener(addr);
  auto client = dial(addr);
  ASSERT_NE(client, nullptr);
  std::unique_ptr<SocketChannel> server;
  for (int i = 0; i < 1'000 && server == nullptr; ++i) {
    server = listener.accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(server, nullptr);
  client->send(kMsgTrace, Bytes{1, 2, 3}, 0);
  client->send(kMsgCredit, Bytes{}, 42);
  std::vector<Delivery> got;
  for (int i = 0; i < 1'000 && got.size() < 2; ++i) {
    for (auto& d : server->poll()) got.push_back(std::move(d));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, static_cast<std::uint32_t>(kMsgTrace));
  EXPECT_EQ(got[0].payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(got[1].credit, 42u);
  EXPECT_TRUE(client->alive() && server->alive());
  client.reset();  // close → EOF at the server
  for (int i = 0; i < 1'000 && server->alive(); ++i) {
    server->poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(server->alive());
}

// Socket-leg fixture: forked shard worker processes over a unix socket,
// router in the test process.
class DistSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_root_ = (fs::temp_directory_path() /
                      ("sb_dist_snap_" +
                       std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name())))
                         .string();
    fs::remove_all(snapshot_root_);
  }
  void TearDown() override {
    for (const int pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    fs::remove_all(snapshot_root_);
  }

  int spawn(std::size_t index, const std::vector<CorpusEntry>& corpus,
            const WorkerConfig& config, const std::string& addr) {
    const int pid = spawn_worker_process(index, &corpus, config, addr);
    EXPECT_GT(pid, 0);
    pids_.push_back(pid);
    return pid;
  }

  void reap(int pid) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker exited with status " << status;
    std::erase(pids_, pid);
  }

  // One router round over sockets: accept new peers, pump, breathe.
  void round(Listener& listener, TraceRouter& router) {
    while (auto ch = listener.accept()) {
      router.add_unidentified(std::move(ch));
    }
    router.pump();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  bool wait_until(Listener& listener, TraceRouter& router,
                  const std::function<bool()>& done, int timeout_ms = 20'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      round(listener, router);
    }
    return true;
  }

  std::string snapshot_root_;
  std::vector<int> pids_;
};

TEST_F(DistSocketTest, SocketLegMatchesSimNetLeg) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 192, 41);
  const std::size_t kShards = 3;
  const auto simnet = run_simnet_leg(corpus, wires, kShards, 2);

  const std::string addr = test_socket_addr("diff");
  Listener listener(addr);
  TraceRouter router(kShards);
  WorkerConfig worker_config;
  worker_config.hive.ingest_threads = 2;
  std::vector<int> pids;
  for (std::size_t i = 0; i < kShards; ++i) {
    pids.push_back(spawn(i, corpus, worker_config, addr));
  }
  ASSERT_TRUE(wait_until(listener, router, [&] {
    for (std::size_t i = 0; i < kShards; ++i) {
      if (!router.shard_alive(i)) return false;
    }
    return true;
  })) << "workers never connected";
  for (const auto& wire : wires) {
    router.route_wire(wire);
    round(listener, router);
  }
  ASSERT_TRUE(wait_until(listener, router, [&] { return router.quiescent(); }))
      << "fleet never drained";
  router.broadcast_shutdown();
  ASSERT_TRUE(
      wait_until(listener, router, [&] { return router.all_reports_in(); }))
      << "closing reports never arrived";
  const auto socket_leg = collect_reports(router);
  for (const int pid : pids) reap(pid);

  expect_equivalent(simnet, socket_leg);
  EXPECT_EQ(socket_leg.router.shed, 0u);
}

TEST_F(DistSocketTest, SigkillRestartResumesFromSnapshotByteIdentically) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 160, 53);
  const std::size_t kShards = 2;
  const std::size_t half = wires.size() / 2;

  // Reference: the uninterrupted SimNet leg over the same traffic.
  const auto simnet = run_simnet_leg(corpus, wires, kShards, 1);

  const std::string addr = test_socket_addr("kill");
  Listener listener(addr);
  TraceRouter router(kShards);
  std::vector<WorkerConfig> configs(kShards);
  std::vector<int> pids(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    configs[i].snapshot_dir = snapshot_root_ + "/shard" + std::to_string(i);
    pids[i] = spawn(i, corpus, configs[i], addr);
  }
  ASSERT_TRUE(wait_until(listener, router, [&] {
    return router.shard_alive(0) && router.shard_alive(1);
  }));

  // Phase 1: first half, fully drained (credits settled = all ingested).
  for (std::size_t i = 0; i < half; ++i) {
    router.route_wire(wires[i]);
    round(listener, router);
  }
  ASSERT_TRUE(wait_until(listener, router, [&] { return router.quiescent(); }));

  // Durable checkpoint, then murder shard 0.
  router.request_snapshots();
  ASSERT_TRUE(wait_until(listener, router,
                         [&] { return router.snapshot_acks() >= kShards; }));
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  ASSERT_EQ(::waitpid(pids[0], nullptr, 0), pids[0]);
  std::erase(pids_, pids[0]);

  // The router notices the corpse (EOF on poll) and sheds traffic for it
  // instead of wedging. Probe with traces owned by shard 0 — shed traffic
  // never reaches a hive, so the differential below stays intact.
  ASSERT_TRUE(wait_until(listener, router, [&] {
    return !router.shard_alive(0);
  })) << "router never detected the dead shard";
  HashRing ring(kShards);
  std::size_t probes = 0;
  for (std::size_t i = 0; i < half && probes < 5; ++i) {
    const auto summary = summarize_trace_wire(wires[i]);
    ASSERT_TRUE(summary.has_value());
    if (ring.owner(summary->program.value) != 0) continue;
    router.route_wire(wires[i]);  // duplicate id: would be deduped anyway
    probes++;
  }
  ASSERT_GT(probes, 0u);
  round(listener, router);
  EXPECT_GT(router.stats().shed, 0u);

  // Restart shard 0 from its snapshot; it re-hellos and service resumes.
  pids[0] = spawn(0, corpus, configs[0], addr);
  ASSERT_TRUE(wait_until(listener, router, [&] {
    return router.shard_alive(0);
  })) << "restarted worker never re-announced";

  // Phase 2: second half, then the normal shutdown protocol.
  for (std::size_t i = half; i < wires.size(); ++i) {
    router.route_wire(wires[i]);
    round(listener, router);
  }
  ASSERT_TRUE(wait_until(listener, router, [&] { return router.quiescent(); }));
  router.broadcast_shutdown();
  ASSERT_TRUE(
      wait_until(listener, router, [&] { return router.all_reports_in(); }));
  const auto socket_leg = collect_reports(router);
  for (std::size_t i = 0; i < kShards; ++i) reap(pids[i]);

  // The kill + warm restart is invisible in the results: byte-identical
  // trees, equal hive stats, nothing ingested twice, nothing lost — only
  // the router's shed counter remembers the outage window.
  ASSERT_EQ(socket_leg.trees.size(), simnet.trees.size());
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(socket_leg.trees[i], simnet.trees[i]) << "shard " << i;
    EXPECT_TRUE(socket_leg.stats[i].hive == simnet.stats[i].hive)
        << "shard " << i;
    EXPECT_EQ(socket_leg.stats[i].ingested, simnet.stats[i].ingested)
        << "shard " << i;
  }
  EXPECT_GT(socket_leg.stats[0].snapshots_written, 0u);
  EXPECT_EQ(socket_leg.router.forwarded + socket_leg.router.shed,
            socket_leg.router.received);
}

}  // namespace
}  // namespace softborg::dist
