// E6 — Capture cost vs recording granularity, and coordinated sampling
// (paper §3.1).
//
// Claims under test: capture cost can be reduced by (a) recording only
// branches that depend on program-external events, and (b) coordinated
// sampling across the user community (Liblit [18]); "a recorded trace
// specifies a family of paths, but subsequent aggregation ... can narrow
// down this family".
//
// Part 1: interpreter throughput and wire bytes per execution at each
// granularity (none / tainted-only / all branches / full).
// Part 2: sampling-rate sweep — per-pod recording cost vs how well the
// aggregated site statistics still localize the buggy branch (CBI-style
// rank of the real crash predictor, site 3 of media_parser).
//
// Expected shape: tainted-only costs a small multiple of no-recording and
// far less than all-branches; with rate-r sampling per-pod cost drops ~r x
// while the bug's site keeps rank 1 until very aggressive rates.
//
// Part 3: fleet telemetry overhead — a day of fleet traffic (64 endpoints x
// 64 runs) ingested through one Hive::ingest_batch with observability fully
// disabled, with counters on (the default), with counters plus span
// sampling, and with counters plus the armed flight recorder. The
// acceptance bar (ROADMAP): counters with exporters idle, and the recorder,
// each cost < 2% on this workload.
#include <time.h>

#include <cstdio>

#include "bench_json.h"
#include "core/softborg.h"

using namespace softborg;

namespace {

// CPU time of the calling thread, in seconds. Part 3's ingest_batch runs
// inline on the caller (its pool capped at ingest_threads = 1), so this
// clock covers all of its work and none of the time the host gives to
// other processes.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter json("e6_recording_overhead", argc, argv);
  // ---- part 1: granularity sweep -------------------------------------------
  struct Workload {
    CorpusEntry entry;
    std::vector<Value> inputs;
  };
  std::vector<Workload> workloads;
  workloads.push_back({make_media_parser(), {20, 100}});
  workloads.push_back({make_file_copier(), {32, 8}});
  // skewed_workload has a long deterministic loop: the program where
  // "record only input-dependent branches" pays off most.
  workloads.push_back(
      {make_skewed_workload(8), {1, 1, 0, 1, 0, 1, 0, 1}});

  std::printf("# E6.1: recording granularity vs capture cost\n");
  std::printf("%-14s %-18s %-12s %-12s %-12s\n", "program", "granularity",
              "exec/sec", "bits/exec", "bytes/exec");

  for (const auto& w : workloads) {
    for (auto gran : {Granularity::kNone, Granularity::kTaintedBranches,
                      Granularity::kAllBranches, Granularity::kFull}) {
      const char* name = gran == Granularity::kNone ? "none"
                         : gran == Granularity::kTaintedBranches
                             ? "tainted-only"
                         : gran == Granularity::kAllBranches ? "all-branches"
                                                             : "full";
      const int kRuns = 20'000;
      std::uint64_t bits = 0, bytes = 0;
      Timer timer;
      for (int i = 0; i < kRuns; ++i) {
        ExecConfig cfg;
        cfg.inputs = w.inputs;
        cfg.seed = static_cast<std::uint64_t>(i) + 1;
        cfg.granularity = gran;
        const auto result = execute(w.entry.program, cfg);
        bits += result.trace.branch_bits.size();
        bytes += encode_trace(result.trace).size();
      }
      const double secs = timer.elapsed_seconds();
      std::printf("%-14s %-18s %-12.0f %-12.1f %-12.1f\n",
                  w.entry.program.name.c_str(), name, kRuns / secs,
                  static_cast<double>(bits) / kRuns,
                  static_cast<double>(bytes) / kRuns);
      json.add(w.entry.program.name + "/" + name, "exec_per_sec",
               kRuns / secs);
      json.add(w.entry.program.name + "/" + name, "bytes_per_exec",
               static_cast<double>(bytes) / kRuns);
    }
  }

  // ---- part 2: coordinated sampling ----------------------------------------
  const auto parser = make_media_parser();
  std::printf("\n# E6.2: coordinated sampling — cost vs bug localization\n");
  std::printf("%-8s %-16s %-18s %-14s\n", "rate", "obs/run(pod)",
              "crash-site rank", "crash score");

  for (std::uint32_t rate : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SiteStats stats;
    std::uint64_t observations = 0, runs = 0;
    Rng rng(11);
    // 400 pods, biased toward the crash region so failures occur.
    for (std::uint64_t pod_id = 1; pod_id <= 400; ++pod_id) {
      PodConfig config;
      config.sampling_rate = rate;
      UserProfile profile;
      profile.input_prefs = {{0, 63}, {150, 255}};
      Pod pod(PodId(pod_id), parser, profile, config, rng());
      for (int run = 0; run < 10; ++run) {
        const auto pr = pod.run_once(1);
        runs++;
        if (pr.sampled) {
          observations += pr.sampled->observations.size();
          stats.add(*pr.sampled);
        }
      }
    }
    // Where does the true crash predictor (site 3: "size < 200" taken ==
    // false inside format 13) rank?
    const auto ranked = stats.ranked_sites();
    std::size_t rank = 0;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i] == 3) rank = i + 1;
    }
    std::printf("%-8u %-16.2f %-18zu %-14.3f\n", rate,
                static_cast<double>(observations) /
                    static_cast<double>(runs),
                rank, stats.failure_score(3, false));
  }
  std::printf("\n(site 3 is the planted crash predictor; rank 1 means the "
              "aggregated statistics localize the bug exactly)\n");

  // ---- part 3: fleet telemetry overhead ------------------------------------
  // 64 endpoints, each re-running one corpus program on fixed inputs with a
  // fresh scheduler seed per run (the paper's redundancy model), ingested
  // by a fresh hive through one inline ingest_batch per pass.
  {
    const auto corpus = standard_corpus();
    std::vector<Bytes> wires;
    {
      Rng rng(29);
      wires.reserve(64 * 64);
      for (std::size_t endpoint = 0; endpoint < 64; ++endpoint) {
        const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
        ExecConfig cfg;
        for (const auto& d : entry.domains) {
          cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
        }
        for (std::size_t run = 0; run < 64; ++run) {
          cfg.seed = endpoint * 64 + run + 1;
          auto result = execute(entry.program, cfg);
          result.trace.id = TraceId(endpoint * 64 + run + 1);
          wires.push_back(encode_trace(result.trace));
        }
      }
    }
    HiveConfig inline_cfg;
    inline_cfg.ingest_threads = 1;
    const auto ingest_once = [&] {
      Hive hive(&corpus, inline_cfg);
      hive.ingest_batch(wires);
      return hive.stats().traces_ingested;
    };
    struct Leg {
      const char* name;
      bool counters;
      bool spans;
      bool recorder;
    };
    const Leg legs[] = {{"telemetry-off", false, false, false},
                        {"counters-on", true, false, false},
                        {"counters+spans", true, true, false},
                        {"counters+recorder", true, false, true}};
    constexpr int kLegs = 4;
    // Interleave the legs round-robin and keep each leg's fastest round: a
    // single pass is ~1 ms, so back-to-back blocks would fold clock and
    // allocator drift into the comparison. The minimum over many
    // interleaved rounds isolates the instrumentation cost itself
    // (EXPERIMENTS.md, E6, has the measured spread). Rounds are timed in
    // thread CPU time, so time the thread spends descheduled while the host
    // runs other processes does not count.
    const int kRounds = 200, kRepsPerRound = 10;
    std::printf("\n# E6.3: fleet telemetry overhead on batch ingest\n");
    std::printf("%-18s %-12s %-12s %-10s\n", "telemetry", "cpu ms/pass",
                "traces/sec", "vs off");
    const std::uint64_t ingested = ingest_once();  // warm-up: allocator
    double best_ms[kLegs] = {1e30, 1e30, 1e30, 1e30};
    for (int round = 0; round < kRounds; ++round) {
      for (int l = 0; l < kLegs; ++l) {
        obs::set_enabled(legs[l].counters);
        obs::set_spans_enabled(legs[l].spans);
        obs::set_tracing_enabled(legs[l].recorder);
        obs::Recorder::set_enabled(legs[l].recorder);
        const double start = thread_cpu_seconds();
        for (int rep = 0; rep < kRepsPerRound; ++rep) ingest_once();
        const double ms =
            (thread_cpu_seconds() - start) * 1e3 / kRepsPerRound;
        if (ms < best_ms[l]) best_ms[l] = ms;
      }
    }
    for (int l = 0; l < kLegs; ++l) {
      const double overhead =
          (best_ms[l] - best_ms[0]) / best_ms[0] * 100.0;
      std::printf("%-18s %-12.3f %-12.0f %+.2f%%\n", legs[l].name, best_ms[l],
                  static_cast<double>(ingested) / (best_ms[l] / 1e3),
                  overhead);
      json.add(std::string("ingest_batch/") + legs[l].name, "millis",
               best_ms[l]);
      json.add(std::string("ingest_batch/") + legs[l].name, "overhead_pct",
               overhead);
    }
    obs::set_enabled(true);
    obs::set_spans_enabled(false);
    obs::set_tracing_enabled(false);
    obs::Recorder::set_enabled(false);
    obs::Recorder::global().clear();
    std::printf("(acceptance bar: counters-on and recorder overhead < 2%% "
                "with exporters idle)\n");
  }
  return json.write() ? 0 : 1;
}
