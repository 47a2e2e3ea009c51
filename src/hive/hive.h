// The hive (paper §3, Fig. 1): SoftBorg's aggregation and analysis center.
//
// Responsibilities, in the paper's words: "merges information extracted
// from by-products with its existing knowledge of P, identifies
// misbehaviors in P, synthesizes fixes that improve P, and distributes
// these fixes back to the pods"; plus cumulative proofs and execution
// guidance.
//
// Pipeline per ingested trace:
//   decode -> dedup -> (k-anonymity gate, optional) -> bug tracking
//   -> lock-order analysis -> replay to decision stream -> tree merge.
// process() then turns newly found bugs into validated fixes: candidates
// scoring above the auto threshold are approved for distribution;
// schedule-dependent assertion bugs and low-scoring candidates land in the
// repair lab for a human decision (paper §3.3).
//
// ingest_batch() runs the same pipeline staged: (1) a serial interlude that
// summarizes each wire, runs the order-dependent steps and resolves replay
// cache hits, (2) replay of the cache misses, (3) per-program tree merge.
// Batch replay is memoized: traces with identical replay-relevant content
// (see replay_signature) skip the interpreter (replay is deterministic, so a
// cached decision stream is exact). A batch with enough misses fans stages
// 2 and 3 out on a thread pool, others run inline: replay touches no shared
// state (misses enter the cache serially afterwards, in job order), and
// stage 3 groups traces by program so every ExecTree keeps a single writer
// and needs no locking. The batch path is behaviorally identical to serial
// ingestion — same trees, same stats — and its counters are identical for
// every worker count (see tests/ingest_batch_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"

#include "hive/bugs.h"
#include "hive/fixer.h"
#include "hive/guidance.h"
#include "hive/proof.h"
#include "minivm/corpus.h"
#include "privacy/anonymize.h"
#include "trace/sampling.h"
#include "tree/exec_tree.h"

namespace softborg {

struct CoopResult;
struct DecodedProgram;  // minivm/decode.h

struct HiveConfig {
  double auto_fix_threshold = 0.9;
  // A failure matching a fixed bug's signature only counts as a recurrence
  // after this many days past fix approval (fix propagation takes time;
  // failures from not-yet-patched pods are expected in the window).
  std::uint64_t recurrence_grace_days = 2;
  std::size_t k_anonymity = 1;  // 1 = gate disabled
  std::uint64_t seed = 0x417e;
  // Cap on the worker threads of ingest_batch()'s pool (0: no cap). The pool
  // has min(cap, hardware concurrency) workers and runs only batches with
  // enough replay misses to pay for a fan-out (Hive::kFanOutMisses); a cap
  // of 1 keeps every batch inline. Results are identical either way.
  std::size_t ingest_threads = 0;
  // Replay-memoization entries kept before the cache resets (generational
  // eviction: O(1) amortized, good enough for streaming trace workloads).
  std::size_t replay_cache_capacity = 1 << 16;
  // First ProofId this hive hands out (ShardWorker gives each shard a disjoint
  // block, mirroring FixerConfig::next_fix_id).
  std::uint64_t next_proof_id = 1;
  FixerConfig fixer;
  ProofBudget proof_budget;
  GuidancePlannerConfig guidance;

  static constexpr auto fields() {
    using C = HiveConfig;
    return std::tuple{
        field(&C::auto_fix_threshold), field(&C::recurrence_grace_days),
        field(&C::k_anonymity), field(&C::seed),
        exempt(&C::ingest_threads,
               "results are identical for every worker cap (pinned by "
               "IngestBatch.CounterSnapshotsByteIdenticalAcrossIngestThreads)"),
        exempt(&C::replay_cache_capacity,
               "the replay cache is not persisted: a resumed hive starts it "
               "cold whatever its size"),
        field(&C::next_proof_id), field(&C::fixer), field(&C::proof_budget),
        field(&C::guidance)};
  }
};

struct HiveStats {
  std::uint64_t traces_ingested = 0;
  std::uint64_t duplicates_dropped = 0;
  // Refused by the dedup window: more than kDedupWindowDays older than the
  // newest admitted day (DESIGN.md, "Dedup window").
  std::uint64_t stale_dropped = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t replay_failures = 0;
  std::uint64_t patched_traces_skipped = 0;
  std::uint64_t gated_traces = 0;  // held by the k-anonymity gate
  std::uint64_t paths_merged = 0;
  std::uint64_t new_paths = 0;
  std::uint64_t bugs_found = 0;
  std::uint64_t fixes_approved = 0;
  std::uint64_t repair_lab_entries = 0;
  std::uint64_t proofs_revoked = 0;
  std::uint64_t fix_recurrences = 0;     // a fixed bug's signature came back
  std::uint64_t bugs_reopened = 0;

  bool operator==(const HiveStats&) const = default;

  static constexpr auto fields() {
    using S = HiveStats;
    return std::tuple{
        field(&S::traces_ingested, "hive.traces_ingested_total"),
        field(&S::duplicates_dropped, "hive.duplicates_dropped_total"),
        field(&S::stale_dropped, "hive.stale_dropped_total"),
        field(&S::decode_failures, "hive.decode_failures_total"),
        field(&S::replay_failures, "hive.replay_failures_total"),
        field(&S::patched_traces_skipped, "hive.patched_traces_skipped_total"),
        field(&S::gated_traces, "hive.gated_traces_total"),
        field(&S::paths_merged, "hive.tree.paths_merged_total"),
        field(&S::new_paths, "hive.tree.new_paths_total"),
        field(&S::bugs_found, "hive.bugs_found_total"),
        field(&S::fixes_approved, "hive.fixes_approved_total"),
        field(&S::repair_lab_entries, "hive.repair_lab_entries_total"),
        field(&S::proofs_revoked, "hive.proofs_revoked_total"),
        field(&S::fix_recurrences, "hive.fix_recurrences_total"),
        field(&S::bugs_reopened, "hive.bugs_reopened_total")};
  }
};

// Ingestion-pipeline telemetry; all fields cover ingest_batch() only (the
// single-trace path neither batches nor memoizes).
struct IngestStats {
  std::uint64_t batches = 0;
  std::uint64_t batch_traces = 0;         // wires handed to ingest_batch
  std::uint64_t replay_cache_hits = 0;    // interpreter runs skipped
  std::uint64_t replay_cache_misses = 0;  // interpreter runs performed
  // Batches whose misses met the fan-out rule (Hive::kFanOutMisses), whether
  // or not the worker cap let them run on more than one thread.
  std::uint64_t fan_out_batches = 0;
  // Always 0: wires are summarized inside the serial interlude. Kept only
  // because perfbench still reads it for hive.ingest.decode_s.
  double decode_seconds = 0.0;
  double serial_seconds = 0.0;  // the unparallelizable interlude (Amdahl term)
  double replay_seconds = 0.0;
  double merge_seconds = 0.0;

  double cache_hit_rate() const {
    const std::uint64_t total = replay_cache_hits + replay_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(replay_cache_hits) /
                            static_cast<double>(total);
  }
  double batch_traces_per_second() const {
    const double secs =
        decode_seconds + serial_seconds + replay_seconds + merge_seconds;
    return secs <= 0.0 ? 0.0 : static_cast<double>(batch_traces) / secs;
  }

  static constexpr auto fields() {
    using S = IngestStats;
    return std::tuple{
        field(&S::batches), field(&S::batch_traces),
        field(&S::replay_cache_hits, "hive.replay.cache_hits_total"),
        field(&S::replay_cache_misses, "hive.replay.cache_misses_total"),
        field(&S::fan_out_batches, "hive.ingest.fan_out_batches_total"),
        field(&S::decode_seconds), field(&S::serial_seconds),
        field(&S::replay_seconds), field(&S::merge_seconds)};
  }
};

class Hive {
 public:
  // `corpus` must outlive the hive (the hive analyzes these programs).
  Hive(const std::vector<CorpusEntry>* corpus, HiveConfig config = {});

  // --- ingestion ------------------------------------------------------------
  void ingest_bytes(const Bytes& wire);
  void ingest(Trace t);
  void ingest_sampled(const SampledTrace& t);

  // Ingests a batch of encoded traces through the staged pipeline (serial
  // interlude -> replay of cache misses -> per-program merge). A batch with
  // at least kFanOutMisses misses fans replay and merge out on the ingest
  // pool; smaller ones run inline. Produces exactly the same trees and
  // HiveStats as calling ingest_bytes() on each wire in order.
  void ingest_batch(const std::vector<Bytes>& wires);

  // The fan-out rule's threshold: replay misses in one batch. One
  // parallel_for on a 4-worker pool costs about 50 us at p50 and 90 us at
  // p99, and a batch that fans out pays two (replay, then merge): ~180 us at
  // p99. A miss costs about 5 us of replay (2 us) and fresh merge (3 us); at
  // the 2x speedup 4 workers measure on that work, each miss spread saves
  // ~2.5 us, so the fan-out breaks even near 70 misses. Twice that keeps a
  // batch that fans out clear of the overhead's tail.
  static constexpr std::size_t kFanOutMisses = 128;

  // --- analysis & synthesis ---------------------------------------------------
  // Processes newly recorded bugs; returns fixes approved for distribution.
  std::vector<FixCandidate> process();

  // Guidance directives per program (frontier witnesses for single-threaded
  // programs, schedule plans for multi-threaded ones).
  std::vector<GuidanceDirective> plan_guidance(std::size_t per_program);

  // The per-program slice of plan_guidance: directives for `entry` only, so
  // a caller can plan a subset of the corpus without planning all of it.
  std::vector<GuidanceDirective> plan_guidance_for(const CorpusEntry& entry,
                                                   std::size_t per_program);

  // Attempts a cumulative proof for one program. A publishable certificate
  // is published unless the program already holds an unrevoked one with
  // the same content (equal but for id and day_issued): re-proving an
  // unchanged program adds nothing to the ledger.
  ProofCertificate attempt_proof(ProgramId program, Property property);

  // Proof gap closure for the whole corpus (or an explicit program slice):
  // attempt_proof on each entry in order. Certificates come back in entry
  // order; publishable ones are published in that order.
  std::vector<ProofCertificate> attempt_proofs_all(Property property);
  std::vector<ProofCertificate> attempt_proofs_for(
      const std::vector<const CorpusEntry*>& entries, Property property);

  // --- introspection ----------------------------------------------------------
  ExecTree* tree(ProgramId program);
  const ExecTree* tree(ProgramId program) const;
  BugTracker& bug_tracker() { return bugs_; }
  const BugTracker& bug_tracker() const { return bugs_; }
  const std::vector<RepairLabEntry>& repair_lab() const { return repair_lab_; }
  const HiveStats& stats() const { return stats_; }
  const IngestStats& ingest_stats() const { return ingest_stats_; }
  const SiteStats& site_stats(ProgramId program);

  // Dedup window (DESIGN.md, "Dedup window"): trace ids are remembered for
  // the newest admitted day (the clock) and the kDedupWindowDays before it.
  // Twice the 7-day quantum of AnonymizeConfig::quantize_day, so a
  // quantized trace delivered a day late is still inside.
  static constexpr std::uint64_t kDedupWindowDays = 14;
  std::uint64_t dedup_clock() const { return dedup_clock_; }
  // (day, ids held) for each day the window holds ids of, oldest first.
  std::vector<std::pair<std::uint64_t, std::size_t>> dedup_window() const;

  // Published certificates. A certificate is revoked (paper §3.3: the hive
  // must "decide whether the instrumentation invalidates the hive's
  // existing knowledge and proofs") when a fix for its program ships: the
  // deployed behaviour is P+fixes, no longer the P the proof talks about.
  struct PublishedProof {
    ProofCertificate certificate;
    bool revoked = false;
  };
  const std::vector<PublishedProof>& published_proofs() const {
    return proofs_;
  }
  std::size_t valid_proof_count() const;

  // Telemetry for every proof attempt this hive made (attempt_proof and the
  // sweep paths alike), summed from the certificates.
  struct ProofClosureStats {
    std::uint64_t attempts = 0;
    std::uint64_t publishable = 0;
    std::uint64_t refuted = 0;  // attempts that found a counterexample
    std::uint64_t solver_calls = 0;

    // Always 0: the hive caches no solver results. Kept only because
    // perfbench's fleet_loop still reads it for hive.proof_recycle_ratio.
    std::uint64_t recycled() const { return 0; }
    bool operator==(const ProofClosureStats&) const = default;

    static constexpr auto fields() {
      using S = ProofClosureStats;
      return std::tuple{
          field(&S::attempts, "proof.attempts_total"),
          field(&S::publishable, "proof.publishable_total"),
          field(&S::refuted, "proof.refuted_total"),
          field(&S::solver_calls, "solver.calls_total")};
    }
  };
  const ProofClosureStats& proof_stats() const { return proof_stats_; }

  // True when this hive currently holds an unrevoked certificate for
  // `program` (the per-program slice of valid_proof_count).
  bool has_valid_proof(ProgramId program) const;

  // Cooperative-exploration outcomes, accumulated per partition strategy
  // (hive/coop.h) so the adaptive loop and operators can see coop
  // efficiency — idle ticks and churn-wasted work were previously invisible
  // to the obs layer. Indexed by PartitionStrategy.
  struct CoopStrategyStats {
    std::uint64_t runs = 0;
    std::uint64_t completed = 0;
    std::uint64_t ticks = 0;
    std::uint64_t useful_steps = 0;
    std::uint64_t wasted_steps = 0;
    std::uint64_t idle_ticks = 0;
    std::uint64_t worker_deaths = 0;

    bool operator==(const CoopStrategyStats&) const = default;

    // Counter names are suffixes under "coop.<strategy>.".
    static constexpr auto fields() {
      using S = CoopStrategyStats;
      return std::tuple{field(&S::runs, "runs_total"),
                        field(&S::completed, "completed_total"),
                        field(&S::ticks, "ticks_total"),
                        field(&S::useful_steps, "useful_steps_total"),
                        field(&S::wasted_steps, "wasted_steps_total"),
                        field(&S::idle_ticks, "idle_ticks_total"),
                        field(&S::worker_deaths, "worker_deaths_total")};
    }
  };
  // Folds one finished coop run into the per-strategy ledger and publishes
  // the deltas (a serial barrier: coop runs are single-threaded).
  void record_coop_outcome(const CoopResult& result);
  const std::array<CoopStrategyStats, 3>& coop_stats() const {
    return coop_stats_;
  }

  // --- durable store (src/store) ---------------------------------------------
  // save_state/load_state cover every accumulated ledger except the trees
  // (a separate part below, so warm starts can import them without the
  // run-specific state) and the replay memoization cache
  // (pure derived perf state: replay is deterministic, so it re-fills
  // identically — only IngestStats timing telemetry could notice).
  // The dedup window goes in as its clock and its live days only, so the
  // snapshot stays flat however long the hive runs. A state whose leading
  // layout tag is not this build's (an older binary's) is refused.
  // load_state expects a hive constructed over the same corpus with the
  // same config; it validates every embedded record against the corpus and
  // re-baselines metric publication at the restored stats. False means the
  // snapshot is corrupt — discard the hive and cold-start.
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);

  // Per-program execution trees, serialized in corpus order on the v2 tree
  // wire (tree/tree_codec). load_trees validates each tree through the
  // hardened decoder and rejects programs outside the corpus.
  void save_trees(Bytes& out) const;
  bool load_trees(StateReader& r);

  // The persisted crashing/regression set: one sanitized trace wire per
  // recorded bug exemplar (failing outcomes only), in bug-database order.
  // Identity fields are zeroed (trace id 0 skips dedup) so a warm-started
  // fleet can replay yesterday's crashers before today's fresh traffic —
  // fuzzer-style corpus replay across process lifetimes.
  std::vector<Bytes> regression_inputs() const;

 private:
  const CorpusEntry* entry_of(ProgramId program) const;
  // The dedup step of both ingest paths: false (counted as a duplicate or a
  // stale trace) when the trace must be dropped. Id 0 always passes.
  bool admit(TraceId id, std::uint64_t day);
  void ingest_impl(Trace t);  // ingest() minus the telemetry publication
  void ingest_released(Trace t);
  // Everything before replay: dedup-independent bug tracking, lock-order
  // analysis, and the natural-execution filters. Returns the corpus entry
  // when `t` still needs replay + merge, nullptr when the pipeline ends.
  const CorpusEntry* prepare_released(const Trace& t);
  // Post-record bookkeeping shared by the trace and summary ingestion paths:
  // fix-recurrence monitoring, new-bug stats, schedule-dependent marking.
  void note_bug_sighting(Bug* bug, const CorpusEntry& entry,
                         std::uint64_t day);
  void merge_decisions(const Trace& t,
                       const std::vector<SymDecision>& decisions);
  // The decoded stream replay runs `entry`'s program on: the one pods
  // without fixes share (predecode_cached, fused), fetched the first time
  // the program is replayed and held from then on. Serial callers only, so
  // stage 2's workers never take the predecode cache's lock.
  const DecodedProgram& replay_stream(const CorpusEntry& entry);
  // The pool a fanned-out batch runs on, started on first use: min(cap,
  // hardware concurrency) workers, where ingest_threads is the cap (0: none).
  // Null when that leaves one worker or fewer. Workers beyond the cores
  // would only add context switches on the pure-CPU replay/merge stages.
  ThreadPool* ingest_pool();
  // Pushes the deltas of stats_ / ingest_stats_ / proof_stats_ accumulated
  // since the last publication into the process-wide registry. Called at
  // serial boundaries only (end of a trace/batch ingest, each proof attempt,
  // process()) so the pipeline hot paths carry no telemetry cost
  // and the counters stay deterministic across worker counts (DESIGN.md,
  // "Observability").
  void publish_metrics();

  const std::vector<CorpusEntry>* corpus_;
  FlatU64PtrMap<const CorpusEntry> entry_index_;  // program id -> entry
  HiveConfig config_;
  HiveStats stats_;
  IngestStats ingest_stats_;
  // publish_metrics() delta baselines: how much of each stats struct has
  // already been pushed into the registry.
  HiveStats obs_published_stats_;
  IngestStats obs_published_ingest_;
  ProofClosureStats obs_published_proof_;
  std::array<CoopStrategyStats, 3> coop_stats_{};
  std::array<CoopStrategyStats, 3> obs_published_coop_{};

  // Hot lookup structures are hashed, not ordered: nothing user-visible
  // iterates them (ordered outputs — proofs, guidance, exports — iterate the
  // stably-ordered corpus instead). Trees honor a single-writer invariant:
  // ingest_batch gives each program's tree to exactly one merge task.
  std::unordered_map<std::uint64_t, ExecTree> trees_;           // by program
  std::unordered_map<std::uint64_t, LockOrderAnalyzer> locks_;  // by program
  std::unordered_map<std::uint64_t, SiteStats> sites_;          // by program
  std::unique_ptr<KAnonymityGate> gate_;  // null when k_anonymity <= 1

  // The dedup window: a ring of kDedupWindowDays + 1 id tables indexed by
  // day % size and tagged with their day. Empty until the first nonzero id,
  // so constructing a hive allocates none of it. A bucket whose tag is not
  // the probing day holds a day that has left the window; admit() clears
  // it (keeping its capacity) and retags it.
  struct DedupBucket {
    std::uint64_t day = 0;
    FlatU64Set ids;
  };
  std::vector<DedupBucket> dedup_buckets_;
  std::uint64_t dedup_clock_ = 0;  // newest day admit() let through
  // The buckets holding ids of live days, oldest day first.
  std::vector<const DedupBucket*> live_dedup_buckets() const;

  // Replay memoization: replay_key() pairs a splitmix-chained `key` with an
  // independently seeded check hash; hits verify both. A null decisions
  // pointer caches a failing replay. Only the ingesting thread touches it:
  // the serial interlude probes it, and misses enter it after stage 2.
  //
  // Open-addressed and insert-only, cleared wholesale at capacity
  // (generational eviction). Replay keys are pre-mixed, so the low bits
  // index directly. Slot key 0 means empty; a genuine zero key (one in
  // 2^64) is simply never cached.
  struct ReplayCache {
    struct Slot {
      std::uint64_t key = 0;
      std::uint64_t check = 0;
      std::shared_ptr<const std::vector<SymDecision>> decisions;
    };
    // Hit: the slot for `key` with a matching check; null otherwise (a
    // matching key with a stale check reads as a miss; insert replaces it).
    const Slot* find(const ReplayKey& key) const;
    // Starts loading the first slot find(key) reads.
    void prefetch(const ReplayKey& key) const;
    void insert(const ReplayKey& key,
                std::shared_ptr<const std::vector<SymDecision>> decisions,
                std::size_t capacity);

    std::vector<Slot> slots;  // always a power of two (or empty)
    std::size_t count = 0;
  };
  ReplayCache replay_cache_;
  // Held replay streams by program id (replay_stream()).
  std::unordered_map<std::uint64_t, std::shared_ptr<const DecodedProgram>>
      replay_streams_;
  std::unique_ptr<ThreadPool> ingest_pool_;  // lazily created

  ProofClosureStats proof_stats_;

  BugTracker bugs_;
  FixSynthesizer fixer_;
  GuidancePlanner planner_;
  ProofEngine prover_;
  Rng rng_;

  void revoke_proofs(ProgramId program);
  // True when an unrevoked published certificate proves what cert proves:
  // the same program, property, input domain, path census, verdict and
  // counterexample (the attempt's own telemetry aside).
  bool holds_unrevoked(const ProofCertificate& cert) const;

  std::uint64_t latest_day_seen_ = 0;
  std::unordered_set<std::uint64_t> fix_attempted_bugs_;
  std::unordered_map<std::uint64_t, std::uint64_t> recurrences_;  // bug -> n
  std::vector<RepairLabEntry> repair_lab_;
  std::vector<PublishedProof> proofs_;
};

}  // namespace softborg
