// Fleet simulation: the paper's core bet at scale (§2: "the aggregation of
// all executions across the lifetime of a program ... is equivalent to one
// big test suite").
//
// Deploys the full buggy corpus to a fleet of heterogeneous simulated users
// for a simulated month and prints the reliability trajectory: failure
// rates collapse as the hive converts crashes and deadlocks into
// distributed fixes, while path coverage keeps climbing. The race_counter
// program demonstrates the repair lab: its atomicity violation is detected
// and diagnosed but deliberately never auto-fixed.
//
// Usage: fleet_simulation [seed] [--days N] [--metrics-json PATH]
//                         [--metrics-prom PATH] [--snapshot-dir DIR]
//                         [--snapshot-every N] [--resume] [--warm-start]
//                         [--adaptive] [--trace-out PATH]
//                         [--distributed] [--dist-shards N]
//                         [--traces-per-day N]
// The metrics flags enable span sampling for the run and write a final
// snapshot of the global registry in JSON ("softborg.metrics.v1") or
// Prometheus text exposition; PATH "-" writes to stdout.
//
// --trace-out PATH enables causal tracing + the flight recorder and writes
// a merged Chrome trace_event / Perfetto JSON timeline to PATH (load it in
// ui.perfetto.dev). Under --distributed the per-process flight-recorder
// dumps land in PATH.d/ and are clock-aligned into one fleet timeline; in
// the single-process World the timeline covers this process's spans and
// pipeline events.
//
// Persistence (src/store): --snapshot-dir plus --snapshot-every N write a
// durable generation every N days. --resume restores the newest good
// generation from --snapshot-dir and continues the run bit-identically to
// one that was never interrupted; if the directory holds no loadable
// snapshot (first run, torn write, version skew) the fleet cold-starts and
// says so. --warm-start instead begins a FRESH run but replays the stored
// regression set each day, so previously-found bugs resurface immediately.
//
// --distributed runs the fleet as OS processes instead of one (src/dist):
// --dist-shards shard workers are forked, each owning a Hive, and a
// TraceRouter in this process streams each simulated day's traffic to them
// over a Unix-domain socket with bounded queues and credit-based
// backpressure. The per-day rows then show transport health (shed traces,
// backpressure stalls, queue peak) alongside delivery counts, and the run
// ends with each worker's closing ledger. Composes with --days and seed;
// the World-only knobs (--resume, --adaptive, ...) do not apply.
//
// --adaptive turns on the telemetry-driven control plane (hive/adapt.h):
// guidance budgets, the daily proof slice, and a daily cooperative
// exploration run are all rebalanced from measured yield instead of the
// static uniform schedule. Composes with the persistence flags — the yield
// ledger is part of every snapshot, so a resumed adaptive run keeps its
// learned allocation and stays bit-identical to an uninterrupted one.
#include <sys/stat.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "common/fsio.h"
#include "core/softborg.h"
#include "hive/report.h"

namespace {

// Best-effort mkdir -p for the flight-recorder dump directory.
void mkdirs(const std::string& path) {
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    ::mkdir(path.substr(0, pos).c_str(), 0755);
  }
}

// Decodes the dumps that exist under `paths`, merges them into one Chrome
// trace JSON at `out_path`, and prints the stable summary line.
void merge_trace_dumps(const std::vector<std::string>& paths,
                       const std::string& out_path) {
  using namespace softborg;
  std::vector<obs::RecorderDump> dumps;
  for (const std::string& path : paths) {
    Bytes data;
    if (!read_file(path, data)) continue;
    if (auto dump = obs::decode_recorder_dump(data)) {
      dumps.push_back(std::move(*dump));
    }
  }
  obs::ChromeTraceStats st;
  const std::string json = obs::to_chrome_trace(dumps, &st);
  if (obs::write_text_file(out_path, json)) {
    std::printf(
        "trace: dumps=%zu events=%zu flows=%zu cross_process_chains=%zu "
        "-> %s\n",
        st.processes, st.events, st.flows, st.cross_process_chains,
        out_path.c_str());
  }
}

// The --distributed fleet: forked shard workers behind a socket router,
// stepped one simulated day at a time. Traffic is the same seeded
// corpus-random workload shape the in-process World generates, so the day
// series is comparable; the extra columns are the transport's.
int run_distributed(std::uint64_t seed, std::uint64_t days,
                    std::size_t num_shards, std::size_t traces_per_day,
                    const char* prom_path, const char* trace_out) {
  using namespace softborg;
  using namespace softborg::dist;

  const std::string addr =
      "unix:/tmp/softborg-fleet-" + std::to_string(::getpid()) + ".sock";
  // Flight-recorder dumps live next to the merged timeline in <out>.d/.
  std::string dump_dir, router_dump;
  std::vector<std::string> dump_paths;
  if (trace_out != nullptr) {
    dump_dir = std::string(trace_out) + ".d";
    mkdirs(dump_dir);
    router_dump = dump_dir + "/router.sbfr";
    obs::set_tracing_enabled(true);
    obs::Recorder::set_enabled(true);
    obs::Recorder::global().set_label("router");
    obs::Recorder::global().install_signal_flush(router_dump);
  }
  const auto corpus = standard_corpus();
  // Fork before anything in this process creates a thread.
  std::vector<int> pids;
  for (std::size_t i = 0; i < num_shards; ++i) {
    WorkerConfig config;
    if (trace_out != nullptr) {
      config.trace_dump_path =
          dump_dir + "/shard" + std::to_string(i) + ".sbfr";
      dump_paths.push_back(config.trace_dump_path);
    }
    const int pid = spawn_worker_process(i, &corpus, config, addr);
    if (pid <= 0) {
      std::fprintf(stderr, "fork failed for shard %zu\n", i);
      return 1;
    }
    pids.push_back(pid);
  }
  Listener listener(addr);
  TraceRouter router(num_shards);
  const auto round = [&] {
    while (auto ch = listener.accept()) router.add_unidentified(std::move(ch));
    router.pump();
  };
  const auto settle = [&](auto done) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      round();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return done();
  };

  Rng rng(seed);
  std::uint64_t trace_id = 1;
  std::printf("%-5s %-8s %-9s %-6s %-7s %-7s\n", "day", "traces", "forwarded",
              "shed", "stalls", "qpeak");
  RouterStats prev;
  for (std::uint64_t day = 1; day <= days; ++day) {
    for (std::size_t i = 0; i < traces_per_day; ++i) {
      const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
      ExecConfig cfg;
      for (const auto& d : entry.domains) {
        cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
      }
      cfg.seed = rng();
      auto result = execute(entry.program, cfg);
      result.trace.id = TraceId(trace_id++);
      result.trace.day = day;
      obs::TraceContext ctx;
      if (obs::tracing_enabled()) {
        // This loop is the pod stand-in: the causal chain is born at
        // injection, exactly as Pod::run_once births it in a real fleet.
        ctx = obs::with_hop(
            obs::TraceContext{obs::causal_trace_id(result.trace.id.value,
                                                   result.trace.program.value),
                              0},
            obs::Hop::kPod);
        obs::Recorder::record(obs::EventKind::kPodEmit, ctx);
      }
      router.route_wire(encode_trace(result.trace), ctx);
      round();
    }
    if (!settle([&] { return router.quiescent(); })) {
      std::fprintf(stderr, "day %llu: fleet failed to drain\n",
                   static_cast<unsigned long long>(day));
      break;
    }
    const RouterStats& s = router.stats();
    std::printf("%-5llu %-8llu %-9llu %-6llu %-7llu %-7zu\n",
                static_cast<unsigned long long>(day),
                static_cast<unsigned long long>(s.received - prev.received),
                static_cast<unsigned long long>(s.forwarded - prev.forwarded),
                static_cast<unsigned long long>(s.shed - prev.shed),
                static_cast<unsigned long long>(s.backpressure_stalls -
                                                prev.backpressure_stalls),
                s.queue_depth_peak);
    prev = s;
  }

  router.broadcast_shutdown();
  const bool closed = settle([&] { return router.all_reports_in(); });
  const RouterStats& s = router.stats();
  std::printf(
      "\ndistributed fleet: received=%llu forwarded=%llu shed=%llu "
      "(%.2f%% shed rate), stalls=%llu stall_s=%.3f queue_peak=%zu\n",
      static_cast<unsigned long long>(s.received),
      static_cast<unsigned long long>(s.forwarded),
      static_cast<unsigned long long>(s.shed),
      s.received == 0 ? 0.0
                      : 100.0 * static_cast<double>(s.shed) /
                            static_cast<double>(s.received),
      static_cast<unsigned long long>(s.backpressure_stalls), s.stall_seconds,
      s.queue_depth_peak);
  std::uint64_t bugs = 0, paths = 0, ingested = 0;
  for (const auto& report : router.reports()) {
    const auto stats = dist::decode_worker_stats(report.stats_wire);
    if (!stats) continue;
    ingested += stats->ingested;
    bugs += stats->hive.bugs_found;
    paths += stats->hive.new_paths;
    std::printf("shard %llu: ingested=%llu bugs=%llu new_paths=%llu\n",
                static_cast<unsigned long long>(stats->shard_index),
                static_cast<unsigned long long>(stats->ingested),
                static_cast<unsigned long long>(stats->hive.bugs_found),
                static_cast<unsigned long long>(stats->hive.new_paths));
  }
  std::printf("fleet totals: ingested=%llu bugs=%llu new_paths=%llu\n",
              static_cast<unsigned long long>(ingested),
              static_cast<unsigned long long>(bugs),
              static_cast<unsigned long long>(paths));
  if (prom_path != nullptr) {
    obs::write_text_file(prom_path,
                         obs::to_prometheus(
                             obs::MetricsRegistry::global().snapshot()));
  }
  int failures = 0;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    ::waitpid(pids[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) failures++;
  }
  if (trace_out != nullptr) {
    // Workers have exited (dumps flushed at their clean shutdown); add this
    // process's dump and merge everything onto one clock axis.
    (void)obs::Recorder::global().flush_to_file(router_dump);
    dump_paths.push_back(router_dump);
    merge_trace_dumps(dump_paths, trace_out);
  }
  return closed && failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace softborg;

  WorldConfig config;
  config.pods_per_program = 150;  // ~1000 pods across the 7-program corpus
  config.days = 30;
  config.mean_runs_per_day = 5.0;
  config.guidance_per_program_per_day = 3;
  config.net.drop_prob = 0.02;
  config.seed = 42;

  const char* json_path = nullptr;
  const char* prom_path = nullptr;
  const char* trace_out = nullptr;
  bool resume = false;
  bool warm_start = false;
  bool distributed = false;
  std::size_t dist_shards = 4;
  std::size_t traces_per_day = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--distributed") == 0) {
      distributed = true;
    } else if (std::strcmp(argv[i], "--dist-shards") == 0 && i + 1 < argc) {
      dist_shards = static_cast<std::size_t>(atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--traces-per-day") == 0 && i + 1 < argc) {
      traces_per_day = static_cast<std::size_t>(atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      config.days = static_cast<std::uint64_t>(atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-dir") == 0 && i + 1 < argc) {
      config.snapshot_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 && i + 1 < argc) {
      config.snapshot_every_n_days =
          static_cast<std::size_t>(atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--warm-start") == 0) {
      warm_start = true;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      config.adapt.static_plan = false;
      config.proof_programs_per_day = 2;
      config.coop_programs_per_day = 1;
      config.coop.num_workers = 3;
    } else {
      config.seed = static_cast<std::uint64_t>(atoll(argv[i]));
    }
  }
  if (json_path != nullptr || prom_path != nullptr) {
    obs::set_spans_enabled(true);  // populate the timing histograms too
  }
  if (distributed) {
    return run_distributed(config.seed, config.days, dist_shards,
                           traces_per_day, prom_path, trace_out);
  }
  if (trace_out != nullptr) {
    // Single-process World: one dump, still a valid (one-lane) timeline.
    obs::set_tracing_enabled(true);
    obs::Recorder::set_enabled(true);
    obs::Recorder::global().set_label("world");
  }
  if ((resume || warm_start) && config.snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "--resume/--warm-start need --snapshot-dir DIR\n");
    return 2;
  }
  if (warm_start) {
    std::string err;
    config.warm_start_regressions =
        load_regression_inputs(config.snapshot_dir, &err);
    std::printf("warm start: %zu regression inputs%s%s\n",
                config.warm_start_regressions.size(),
                err.empty() ? "" : " — ", err.c_str());
  }

  std::optional<World> world_slot;
  world_slot.emplace(standard_corpus(), config);
  if (resume) {
    std::string err;
    if (world_slot->resume_from_snapshot(config.snapshot_dir, &err)) {
      std::printf("resumed from %s at day %llu\n", config.snapshot_dir.c_str(),
                  static_cast<unsigned long long>(world_slot->day()));
    } else {
      // A bad/missing snapshot is a clean cold start, never a crash — but
      // the failed restore may have left the World partially mutated, so
      // rebuild from scratch.
      std::printf("no usable snapshot in %s (%s): cold start\n",
                  config.snapshot_dir.c_str(), err.c_str());
      world_slot.emplace(standard_corpus(), config);
    }
  }
  World& world = *world_slot;

  std::printf("%-5s %-8s %-9s %-7s %-9s %-6s %-6s %-8s %-8s\n", "day",
              "runs", "failures", "rate%", "averted", "bugs", "fixed",
              "paths", "traces");
  while (world.day() < config.days) {
    world.step_day();
    const auto& d = world.history().back();
    std::printf("%-5llu %-8llu %-9llu %-7.3f %-9llu %-6zu %-6zu %-8zu %-8llu\n",
                static_cast<unsigned long long>(d.day),
                static_cast<unsigned long long>(d.runs),
                static_cast<unsigned long long>(d.failures),
                d.failure_rate * 100.0,
                static_cast<unsigned long long>(d.fix_interventions),
                d.bugs_found_total, d.bugs_fixed_total, d.total_paths,
                static_cast<unsigned long long>(d.traces_delivered_total));
  }

  std::printf("\nhive stats: ingested=%llu dup=%llu stale=%llu "
              "decode_fail=%llu new_paths=%llu fixes=%llu repair_lab=%llu\n",
              static_cast<unsigned long long>(world.hive().stats().traces_ingested),
              static_cast<unsigned long long>(world.hive().stats().duplicates_dropped),
              static_cast<unsigned long long>(world.hive().stats().stale_dropped),
              static_cast<unsigned long long>(world.hive().stats().decode_failures),
              static_cast<unsigned long long>(world.hive().stats().new_paths),
              static_cast<unsigned long long>(world.hive().stats().fixes_approved),
              static_cast<unsigned long long>(world.hive().stats().repair_lab_entries));

  std::printf("\n%s", hive_status_report(world.hive(), world.net_stats()).c_str());

  if (json_path != nullptr || prom_path != nullptr) {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    if (json_path != nullptr) {
      obs::write_text_file(json_path, obs::to_json(snap));
    }
    if (prom_path != nullptr) {
      obs::write_text_file(prom_path, obs::to_prometheus(snap));
    }
  }
  if (trace_out != nullptr) {
    obs::ChromeTraceStats st;
    const std::string json = obs::to_chrome_trace(
        {obs::Recorder::global().snapshot()}, &st);
    if (obs::write_text_file(trace_out, json)) {
      std::printf("trace: dumps=1 events=%zu flows=%zu -> %s\n", st.events,
                  st.flows, trace_out);
    }
  }
  return 0;
}
