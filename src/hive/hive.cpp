#include "hive/hive.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <thread>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "hive/coop.h"
#include "minivm/replay.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "trace/codec.h"

namespace softborg {

namespace {
// Stage timings piggyback on the IngestStats timers instead of SB_SPAN: the
// stages share locals across one function body, so scoped blocks don't fit.
inline void record_stage_span(obs::SpanSite& site, double seconds) {
  if (obs::spans_enabled()) site.hist().record(seconds * 1e6);
}

// The dedup ring: the clock's day and the kDedupWindowDays before it.
constexpr std::uint64_t kDedupBuckets = Hive::kDedupWindowDays + 1;
}  // namespace

Hive::Hive(const std::vector<CorpusEntry>* corpus, HiveConfig config)
    : corpus_(corpus),
      config_(config),
      fixer_(config.fixer),
      planner_(config.guidance),
      prover_(config.next_proof_id),
      rng_(config.seed) {
  SB_CHECK(corpus_ != nullptr);
  entry_index_.reserve(corpus_->size());
  for (const auto& e : *corpus_) entry_index_.insert(e.program.id.value, &e);
  if (config_.k_anonymity > 1) {
    gate_ = std::make_unique<KAnonymityGate>(config_.k_anonymity);
  }
}

const CorpusEntry* Hive::entry_of(ProgramId program) const {
  return entry_index_.find(program.value);
}

ExecTree* Hive::tree(ProgramId program) {
  auto it = trees_.find(program.value);
  return it == trees_.end() ? nullptr : &it->second;
}

const ExecTree* Hive::tree(ProgramId program) const {
  auto it = trees_.find(program.value);
  return it == trees_.end() ? nullptr : &it->second;
}

const SiteStats& Hive::site_stats(ProgramId program) {
  return sites_[program.value];
}

void Hive::ingest_bytes(const Bytes& wire) {
  auto trace = decode_trace(wire);
  if (!trace) {
    stats_.decode_failures++;
    publish_metrics();
    return;
  }
  ingest(std::move(*trace));
}

void Hive::ingest(Trace t) {
  ingest_impl(std::move(t));
  publish_metrics();
}

bool Hive::admit(TraceId id, std::uint64_t day) {
  // Id 0 (warm-start regression wires, replayed every day) bypasses the
  // window: no probe, no stale check, and it does not move the clock.
  if (id.value == 0) return true;
  if (day < dedup_clock_ && dedup_clock_ - day > kDedupWindowDays) {
    stats_.stale_dropped++;  // its day's ids are gone: cannot tell a copy
    return false;
  }
  if (dedup_buckets_.empty()) dedup_buckets_.resize(kDedupBuckets);
  dedup_clock_ = std::max(dedup_clock_, day);
  // A network duplicate is a byte copy, so it carries the original's day:
  // probing that day's bucket alone finds it.
  DedupBucket& bucket = dedup_buckets_[day % kDedupBuckets];
  if (bucket.day != day) {
    bucket.ids.clear();  // a day that left the window
    bucket.day = day;
  }
  if (!bucket.ids.insert(id.value)) {
    stats_.duplicates_dropped++;  // network duplicate
    return false;
  }
  return true;
}

void Hive::ingest_impl(Trace t) {
  if (!admit(t.id, t.day)) return;
  stats_.traces_ingested++;

  if (gate_ != nullptr) {
    auto released = gate_->add(std::move(t));
    if (released.empty()) {
      stats_.gated_traces++;
      return;
    }
    for (auto& r : released) ingest_released(std::move(r));
    return;
  }
  ingest_released(std::move(t));
}

void Hive::ingest_released(Trace t) {
  const CorpusEntry* entry = prepare_released(t);
  if (entry == nullptr) return;
  // The single-trace path replays directly; memoization lives in the batch
  // pipeline (ingest_batch), where repeated decision streams are common
  // enough to pay for the signature hashing.
  const auto rep = replay_trace(entry->program, t);
  if (!rep.ok) {
    stats_.replay_failures++;
    return;
  }
  std::vector<SymDecision> decisions;
  decisions.reserve(rep.decisions.size());
  for (const auto& d : rep.decisions) decisions.push_back({d.site, d.taken});
  merge_decisions(t, decisions);
}

void Hive::note_bug_sighting(Bug* bug, const CorpusEntry& entry,
                             std::uint64_t day) {
  if (bug == nullptr) return;
  // Fix-effectiveness monitoring: a failure matching an already-fixed
  // bug's signature — observed after the fix has had time to propagate —
  // means the distributed fix is not holding in the field. After a
  // couple of recurrences the bug is reopened so a new fix attempt (or
  // the repair lab) takes over.
  if (bug->fixed && day > bug->fixed_day + config_.recurrence_grace_days) {
    stats_.fix_recurrences++;
    if (++recurrences_[bug->id.value] >= 3) {
      bug->fixed = false;
      fix_attempted_bugs_.erase(bug->id.value);
      recurrences_.erase(bug->id.value);
      stats_.bugs_reopened++;
      SB_LOG_WARN("hive: reopening bug %llu — fix not holding",
                  static_cast<unsigned long long>(bug->id.value));
    }
  }
  if (bug->occurrences == 1) {
    stats_.bugs_found++;
    // Assertion failures in multi-threaded programs are (conservatively)
    // schedule-dependent: the same input passes under other schedules.
    if (bug->kind == BugKind::kCrash && bug->crash.has_value() &&
        bug->crash->kind == CrashKind::kAssertFailure &&
        entry.program.num_threads() > 1) {
      bugs_.mark_schedule_dependent(bug->id);
    }
    SB_LOG_INFO("hive: new bug: %s", bug->describe().c_str());
  }
}

const CorpusEntry* Hive::prepare_released(const Trace& t) {
  const CorpusEntry* entry = entry_of(t.program);
  if (entry == nullptr) return nullptr;  // unknown program

  latest_day_seen_ = std::max(latest_day_seen_, t.day);

  // Bug tracking first: every failure counts, even unreplayable ones.
  if (t.outcome != Outcome::kOk) {
    Bug* bug = bugs_.record(t);
    note_bug_sighting(bug, *entry, t.day);
    if (t.outcome == Outcome::kDeadlock) {
      locks_[t.program.value].add_trace(t);
    }
  }

  // Tree merge: natural executions only (fixed-up runs are not paths of P),
  // and only granularities whose bit-vectors replay deterministically.
  if (t.patched) {
    stats_.patched_traces_skipped++;
    return nullptr;
  }
  if (t.granularity != Granularity::kTaintedBranches &&
      t.granularity != Granularity::kFull) {
    return nullptr;
  }
  return entry;
}

const Hive::ReplayCache::Slot* Hive::ReplayCache::find(
    const ReplayKey& key) const {
  if (slots.empty() || key.key == 0) return nullptr;
  const std::size_t mask = slots.size() - 1;
  std::size_t i = key.key & mask;
  while (slots[i].key != 0) {
    if (slots[i].key == key.key) {
      return slots[i].check == key.check ? &slots[i] : nullptr;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

void Hive::ReplayCache::prefetch(const ReplayKey& key) const {
  if (!slots.empty()) __builtin_prefetch(&slots[key.key & (slots.size() - 1)]);
}

void Hive::ReplayCache::insert(
    const ReplayKey& key,
    std::shared_ptr<const std::vector<SymDecision>> decisions,
    std::size_t capacity) {
  if (key.key == 0) return;
  if (count >= capacity) {  // generational eviction
    std::fill(slots.begin(), slots.end(), Slot{});
    count = 0;
  }
  if ((count + 1) * 2 > slots.size()) {
    std::vector<Slot> old = std::move(slots);
    slots.assign(std::max<std::size_t>(1024, old.size() * 2), Slot{});
    for (Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t i = s.key & (slots.size() - 1);
      while (slots[i].key != 0) i = (i + 1) & (slots.size() - 1);
      slots[i] = std::move(s);
    }
  }
  const std::size_t mask = slots.size() - 1;
  std::size_t i = key.key & mask;
  while (slots[i].key != 0 && slots[i].key != key.key) i = (i + 1) & mask;
  if (slots[i].key == 0) count++;
  slots[i] = {key.key, key.check, std::move(decisions)};
}

void Hive::merge_decisions(const Trace& t,
                           const std::vector<SymDecision>& decisions) {
  auto [it, inserted] = trees_.try_emplace(t.program.value, t.program);
  const auto merge = it->second.add_path(decisions, t.outcome, t.crash);
  stats_.paths_merged++;
  if (merge.new_path) stats_.new_paths++;
}

ThreadPool* Hive::ingest_pool() {
  std::size_t workers = std::thread::hardware_concurrency();
  const std::size_t cap = config_.ingest_threads;
  if (cap != 0 && (workers == 0 || cap < workers)) workers = cap;
  if (workers <= 1) return nullptr;
  if (ingest_pool_ == nullptr) {
    ingest_pool_ = std::make_unique<ThreadPool>(workers);
  }
  return ingest_pool_.get();
}

void Hive::ingest_batch(const std::vector<Bytes>& wires) {
  SB_SPAN("hive.ingest.batch");
  ingest_stats_.batches++;
  ingest_stats_.batch_traces += wires.size();
  Timer timer;

  // Serial interlude (stage 1), in submission order. One allocation-free
  // validation pass per wire yields the scalar header plus the replay key;
  // the expensive vector payloads are only decoded later, by the consumers
  // that need them (cache-missing replay, new-bug exemplars, the gate).
  // Dedup, the k-anonymity gate, and bug tracking all mutate shared state
  // and must match ingest() exactly.
  // Traces sharing a replay key coalesce into one weighted job here: the key
  // covers every replay-relevant field, so such traces have identical
  // decision streams, outcomes, and crashes, and repeated add_path calls
  // only bump counters — one weighted merge leaves the tree byte-identical.
  struct Job {
    std::size_t wire = 0;  // index into `wires`; unused when trace is set
    const CorpusEntry* entry = nullptr;
    ReplayKey key;
    Outcome outcome = Outcome::kOk;
    bool miss = false;         // not in the cache: stage 2 replays it
    std::uint64_t weight = 1;  // traces coalesced into this job
    std::optional<CrashInfo> crash;
    std::unique_ptr<Trace> trace;  // decoded eagerly: failures, gate releases
    std::shared_ptr<const std::vector<SymDecision>> decisions;
  };
  std::vector<Job> jobs;  // one per distinct replay key, first-seen order
  jobs.reserve(std::max<std::size_t>(64, wires.size() / 4));
  // key.key -> job index, open-addressed: replay keys come out of a splitmix
  // finalizer, so their low bits index uniformly and linear probing at <= 50%
  // load beats a node-based map. Slot key 0 means empty; a genuine zero key
  // (one in 2^64) just skips coalescing, which only costs a duplicate job.
  // Sized for the typical distinct-key fraction and doubled on demand:
  // zeroing a worst-case table every batch costs more than the rare rehash.
  std::size_t key_mask =
      std::bit_ceil(std::max<std::size_t>(64, wires.size() / 4)) - 1;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_key(key_mask + 1,
                                                              {0, 0});
  const auto grow_by_key = [&] {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> old = std::move(by_key);
    key_mask = key_mask * 2 + 1;
    by_key.assign(key_mask + 1, {0, 0});
    for (const auto& e : old) {
      if (e.first == 0) continue;
      std::size_t slot = e.first & key_mask;
      while (by_key[slot].first != 0) slot = (slot + 1) & key_mask;
      by_key[slot] = e;
    }
  };
  // True when `key` folded into an existing job (an interpreter run skipped
  // by memoization, counted as a cache hit); false when a new job is needed.
  const auto coalesce = [&](const ReplayKey& key) {
    if (key.key == 0) return false;
    // jobs.size() bounds the table's entry count (collision-split jobs are
    // pushed but never stored), so this keeps the load factor under 1/2.
    if ((jobs.size() + 1) * 2 > key_mask + 1) grow_by_key();
    std::size_t slot = key.key & key_mask;
    while (true) {
      auto& entry = by_key[slot];
      if (entry.first == 0) {
        entry = {key.key, static_cast<std::uint32_t>(jobs.size())};
        return false;
      }
      if (entry.first == key.key) {
        Job& job = jobs[entry.second];
        if (job.key.check != key.check) {
          return false;  // 64-bit collision: keep the jobs distinct
        }
        job.weight++;
        ingest_stats_.replay_cache_hits++;
        return true;
      }
      slot = (slot + 1) & key_mask;
    }
  };
  // Gate releases and failure traces go through the same prepare_released
  // as serial ingestion; they carry their decoded trace into stage 2.
  const auto stage_decoded = [&](Trace&& t) {
    if (const CorpusEntry* entry = prepare_released(t)) {
      const ReplayKey key = replay_key(t);
      if (coalesce(key)) return;
      Job job;
      job.entry = entry;
      job.key = key;
      job.outcome = t.outcome;
      job.crash = t.crash;
      job.trace = std::make_unique<Trace>(std::move(t));
      jobs.push_back(std::move(job));
    }
  };
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const std::optional<TraceWireSummary> summary =
        summarize_trace_wire(wires[i]);
    if (!summary) {
      stats_.decode_failures++;
      continue;
    }
    const TraceWireSummary& s = *summary;
    if (!admit(s.id, s.day)) continue;
    stats_.traces_ingested++;
    if (gate_ != nullptr) {
      // The gate buffers whole traces (possibly across batches), so this
      // path decodes eagerly, exactly like serial ingestion.
      auto t = decode_trace(wires[i]);
      SB_CHECK(t.has_value());  // summarize validated the same bytes
      auto released = gate_->add(std::move(*t));
      if (released.empty()) {
        stats_.gated_traces++;
        continue;
      }
      for (auto& r : released) stage_decoded(std::move(r));
      continue;
    }
    if (s.outcome == Outcome::kDeadlock) {
      // Deadlock signatures and lock-order analysis consume the trace's
      // lock events; decode the payload now, exactly like serial ingestion.
      auto t = decode_trace(wires[i]);
      SB_CHECK(t.has_value());
      stage_decoded(std::move(*t));
      continue;
    }
    // Fast path: OK traces and non-deadlock failures need no payload until
    // replay. This mirrors prepare_released field-for-field; the only
    // deferred decode is a new bug's exemplar, on first occurrence.
    const CorpusEntry* entry = entry_of(s.program);
    if (entry == nullptr) continue;  // unknown program
    latest_day_seen_ = std::max(latest_day_seen_, s.day);
    if (s.outcome != Outcome::kOk) {
      Bug* bug =
          bugs_.record(BugSighting{s.program, s.outcome, s.crash, s.day});
      if (bug != nullptr && bug->occurrences == 1) {
        auto t = decode_trace(wires[i]);
        SB_CHECK(t.has_value());
        bug->exemplar = std::move(*t);  // record() left it for us to fill
      }
      note_bug_sighting(bug, *entry, s.day);
    }
    if (s.patched) {
      stats_.patched_traces_skipped++;
      continue;
    }
    if (s.granularity != Granularity::kTaintedBranches &&
        s.granularity != Granularity::kFull) {
      continue;
    }
    if (coalesce(s.key)) continue;
    Job job;
    job.wire = i;
    job.entry = entry;
    job.key = s.key;
    job.outcome = s.outcome;
    job.crash = s.crash;
    jobs.push_back(std::move(job));
  }
  // The new jobs probe the replay cache as it stood before the batch: a hit
  // takes its decision stream now, a miss queues the job for stage 2. The
  // probes are independent random reads into a table of up to 2^17 slots,
  // so each prefetches the slot of the job kProbeAhead after it instead of
  // stalling on every probe.
  constexpr std::size_t kProbeAhead = 8;
  std::vector<std::size_t> misses;  // the jobs stage 2 replays, in job order
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i + kProbeAhead < jobs.size()) {
      replay_cache_.prefetch(jobs[i + kProbeAhead].key);
    }
    Job& job = jobs[i];
    if (const ReplayCache::Slot* slot = replay_cache_.find(job.key)) {
      job.decisions = slot->decisions;
      ingest_stats_.replay_cache_hits++;
    } else {
      job.miss = true;
      misses.push_back(i);
    }
  }
  {
    const double sec = timer.elapsed_seconds();
    ingest_stats_.serial_seconds += sec;
    static obs::SpanSite serial_site("hive.ingest.serial");
    record_stage_span(serial_site, sec);
  }

  // Stage 2: replay the misses. A replay reads its own job, its program and
  // its wire and writes only its job's decisions, so it needs no lock, and a
  // batch with at least kFanOutMisses misses fans it out. The misses then
  // enter the cache serially, in job order: which keys a generational wipe
  // keeps, and so every later hit, never depends on the schedule.
  timer.reset();
  const bool fan_out = misses.size() >= kFanOutMisses;
  if (fan_out) ingest_stats_.fan_out_batches++;
  ThreadPool* pool = fan_out ? ingest_pool() : nullptr;
  parallel_for(pool, misses.size(), [&](std::size_t m) {
    Job& job = jobs[misses[m]];
    // A job stage 1 only summarized is decoded into a per-thread scratch
    // that recycles its payload buffers across the batch's misses. The
    // summary came from a successful validation pass, so decode cannot fail.
    const Trace* decoded = job.trace.get();
    if (decoded == nullptr) {
      static thread_local Trace scratch;
      const bool ok = decode_trace_into(scratch, wires[job.wire]);
      SB_CHECK(ok);
      decoded = &scratch;
    }
    const auto rep = replay_trace(job.entry->program, *decoded);
    if (!rep.ok) return;  // null decisions: a failing replay
    auto decisions = std::make_shared<std::vector<SymDecision>>();
    decisions->reserve(rep.decisions.size());
    for (const auto& d : rep.decisions) decisions->push_back({d.site, d.taken});
    job.decisions = std::move(decisions);
  });
  for (const std::size_t i : misses) {
    replay_cache_.insert(jobs[i].key, jobs[i].decisions,
                         config_.replay_cache_capacity);
  }
  ingest_stats_.replay_cache_misses += misses.size();
  {
    const double sec = timer.elapsed_seconds();
    ingest_stats_.replay_seconds += sec;
    static obs::SpanSite replay_site("hive.ingest.replay");
    record_stage_span(replay_site, sec);
  }

  // Stage 3: group by program — each tree gets exactly one writer, so the
  // merge needs no locks, and within a program the submission order is
  // preserved, so the trees are byte-identical to serial ingestion.
  timer.reset();
  struct Group {
    std::vector<std::size_t> jobs;
    std::size_t miss_jobs = 0;       // bounds the new leaves
    std::size_t miss_decisions = 0;  // bounds the new nodes
  };
  std::vector<std::uint64_t> programs;  // first-seen order
  std::unordered_map<std::uint64_t, Group> groups;
  std::size_t programs_with_misses = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].decisions == nullptr) {
      stats_.replay_failures += jobs[i].weight;
      continue;
    }
    const std::uint64_t program = jobs[i].entry->program.id.value;
    auto [it, inserted] = groups.try_emplace(program);
    if (inserted) programs.push_back(program);
    Group& group = it->second;
    group.jobs.push_back(i);
    if (jobs[i].miss) {
      if (group.miss_jobs++ == 0) programs_with_misses++;
      group.miss_decisions += jobs[i].decisions->size();
    }
  }
  // Trees are created serially so the merge tasks never mutate the map.
  for (const std::uint64_t program : programs) {
    trees_.try_emplace(program, ProgramId(program));
  }
  // The merge fans out with the replay, when at least two trees take fresh
  // paths (a hit's path is already in its tree and only bumps counters).
  // Before it does, this thread reserves each such tree for the batch: a
  // miss pastes at most its decisions as nodes and pushes at most one
  // overflow edge, outcome and crash record. A worker that grew a tree
  // itself would allocate the grown arrays in its own malloc arena, and
  // the arenas' slack would raise the hive's peak memory.
  ThreadPool* merge_pool = programs_with_misses >= 2 ? pool : nullptr;
  if (merge_pool != nullptr) {
    for (const std::uint64_t program : programs) {
      const Group& group = groups.find(program)->second;
      if (group.miss_jobs == 0) continue;
      trees_.find(program)->second.reserve(group.miss_decisions,
                                           group.miss_jobs);
    }
  }
  struct MergeCounts {
    std::uint64_t merged = 0;
    std::uint64_t fresh = 0;
  };
  std::vector<MergeCounts> counts(programs.size());
  parallel_for(merge_pool, programs.size(), [&](std::size_t k) {
    ExecTree& tree = trees_.find(programs[k])->second;
    // Jobs are already coalesced per replay key; within a program they sit
    // in first-occurrence order, so weighted merges build a tree
    // byte-identical to merging every trace serially in submission order.
    for (const std::size_t i : groups.find(programs[k])->second.jobs) {
      const Job& job = jobs[i];
      const auto merge =
          tree.add_path(*job.decisions, job.outcome, job.crash, job.weight);
      counts[k].merged += job.weight;
      if (merge.new_path) counts[k].fresh++;
    }
  });
  for (const auto& c : counts) {
    stats_.paths_merged += c.merged;
    stats_.new_paths += c.fresh;
  }
  {
    const double sec = timer.elapsed_seconds();
    ingest_stats_.merge_seconds += sec;
    static obs::SpanSite merge_site("hive.ingest.merge");
    record_stage_span(merge_site, sec);
  }
  publish_metrics();
}

void Hive::ingest_sampled(const SampledTrace& t) {
  sites_[t.program.value].add(t);
}

std::vector<FixCandidate> Hive::process() {
  std::vector<FixCandidate> approved;
  for (Bug* bug : bugs_.open_bugs()) {
    if (!fix_attempted_bugs_.insert(bug->id.value).second) continue;
    const CorpusEntry* entry = entry_of(bug->program);
    if (entry == nullptr) continue;

    auto candidates = fixer_.synthesize(*bug, *entry);
    if (candidates.empty()) continue;

    FixCandidate best = std::move(candidates.front());
    const bool auto_eligible = bug->kind == BugKind::kCrash ||
                               bug->kind == BugKind::kDeadlock;
    if (auto_eligible && best.score() >= config_.auto_fix_threshold) {
      const FixId id = std::visit([](const auto& f) { return f.id; },
                                  best.fix);
      bugs_.mark_fixed(bug->id, id);
      bug->fixed_day = latest_day_seen_;
      stats_.fixes_approved++;
      // Shipping instrumentation changes the deployed program: proofs
      // about the unpatched P no longer describe the fleet (§3.3).
      revoke_proofs(bug->program);
      SB_LOG_INFO("hive: approved fix %llu for bug %llu (score %.2f)",
                  static_cast<unsigned long long>(id.value),
                  static_cast<unsigned long long>(bug->id.value),
                  best.score());
      approved.push_back(std::move(best));
    } else {
      RepairLabEntry lab;
      lab.why_not_auto =
          !auto_eligible
              ? "schedule-dependent or hang: needs a real (human) fix"
              : "validation score below auto threshold";
      lab.candidate = std::move(best);
      repair_lab_.push_back(std::move(lab));
      stats_.repair_lab_entries++;
    }
  }
  publish_metrics();
  return approved;
}

std::vector<GuidanceDirective> Hive::plan_guidance(std::size_t per_program) {
  std::vector<GuidanceDirective> out;
  for (const auto& entry : *corpus_) {
    auto ds = plan_guidance_for(entry, per_program);
    out.insert(out.end(), std::make_move_iterator(ds.begin()),
               std::make_move_iterator(ds.end()));
  }
  return out;
}

std::vector<GuidanceDirective> Hive::plan_guidance_for(
    const CorpusEntry& entry, std::size_t per_program) {
  SB_SPAN("hive.guidance.plan");
  if (entry.program.num_threads() == 1) {
    ExecTree* t = tree(entry.program.id);
    if (t == nullptr) return {};
    return planner_.plan_frontier(entry, *t, per_program);
  }
  return planner_.plan_schedules(entry, per_program, rng_);
}

ProofCertificate Hive::attempt_proof(ProgramId program, Property property) {
  SB_SPAN("hive.proof.attempt");
  const CorpusEntry* entry = entry_of(program);
  SB_CHECK(entry != nullptr);
  auto [it, inserted] = trees_.try_emplace(program.value, program);
  ProofCertificate cert =
      prover_.attempt(*entry, it->second, property, config_.proof_budget);
  cert.day_issued = latest_day_seen_;  // the day process() stamps on fixes
  if (cert.publishable() && !holds_unrevoked(cert)) {
    proofs_.push_back({cert, false});
  }
  proof_stats_.attempts++;
  if (cert.publishable()) proof_stats_.publishable++;
  if (!cert.holds) proof_stats_.refuted++;
  proof_stats_.solver_calls += cert.solver_calls;
  // Proof telemetry publishes here, where every proof attempt ends: the
  // certificates are deterministic, so so are these counters.
  publish_metrics();
  if (obs::Recorder::enabled()) {
    // Closes the causal chain: inherits the worker thread's trace context
    // (set while processing the batch that triggered this proof attempt).
    obs::Recorder::record(obs::EventKind::kProofClose, {},
                          cert.publishable() ? 1u : 0u, cert.solver_calls);
  }
  return cert;
}

// The counters are process-wide, so all hives of a process report one
// aggregate view.
void Hive::publish_metrics() {
  if (!obs::enabled()) {
    // Kill switch: drop the outstanding deltas instead of deferring them.
    obs_published_stats_ = stats_;
    obs_published_ingest_ = ingest_stats_;
    obs_published_proof_ = proof_stats_;
    obs_published_coop_ = coop_stats_;
    return;
  }
  static const obs::CounterSet<HiveStats> hive_counters;
  static const obs::CounterSet<IngestStats> ingest_counters;
  static const obs::CounterSet<ProofClosureStats> proof_counters;
  hive_counters.publish(stats_, obs_published_stats_);
  ingest_counters.publish(ingest_stats_, obs_published_ingest_);
  proof_counters.publish(proof_stats_, obs_published_proof_);
  // Coop counters are named per strategy and registered when a strategy
  // first runs — coop runs are rare (at most a handful per day), so the
  // registry lookups at this serial barrier are irrelevant next to the run.
  for (std::size_t s = 0; s < coop_stats_.size(); ++s) {
    if (coop_stats_[s] == obs_published_coop_[s]) continue;
    obs::CounterSet<CoopStrategyStats>(
        std::string("coop.") +
        strategy_name(static_cast<PartitionStrategy>(s)) + ".")
        .publish(coop_stats_[s], obs_published_coop_[s]);
  }
}

std::vector<ProofCertificate> Hive::attempt_proofs_all(Property property) {
  std::vector<const CorpusEntry*> entries;
  entries.reserve(corpus_->size());
  for (const auto& e : *corpus_) entries.push_back(&e);
  return attempt_proofs_for(entries, property);
}

std::vector<ProofCertificate> Hive::attempt_proofs_for(
    const std::vector<const CorpusEntry*>& entries, Property property) {
  SB_SPAN("hive.proof.sweep");
  std::vector<ProofCertificate> certs;
  certs.reserve(entries.size());
  for (const CorpusEntry* entry : entries) {
    SB_CHECK(entry != nullptr);
    certs.push_back(attempt_proof(entry->program.id, property));
  }
  return certs;
}

void Hive::revoke_proofs(ProgramId program) {
  for (auto& published : proofs_) {
    if (!published.revoked && published.certificate.program == program) {
      published.revoked = true;
      stats_.proofs_revoked++;
      SB_LOG_INFO("hive: revoked proof %llu (%s) — a fix changed the "
                  "deployed program",
                  static_cast<unsigned long long>(
                      published.certificate.id.value),
                  property_name(published.certificate.property));
    }
  }
}

bool Hive::holds_unrevoked(const ProofCertificate& cert) const {
  const auto content = [](ProofCertificate c) {
    c.id = ProofId(0);
    c.day_issued = 0;
    return c;
  };
  const ProofCertificate want = content(cert);
  for (const auto& published : proofs_) {
    if (!published.revoked && content(published.certificate) == want) {
      return true;
    }
  }
  return false;
}

std::size_t Hive::valid_proof_count() const {
  std::size_t n = 0;
  for (const auto& published : proofs_) {
    if (!published.revoked) n++;
  }
  return n;
}

bool Hive::has_valid_proof(ProgramId program) const {
  for (const auto& published : proofs_) {
    if (!published.revoked && published.certificate.program == program) {
      return true;
    }
  }
  return false;
}

void Hive::record_coop_outcome(const CoopResult& result) {
  const std::size_t s = static_cast<std::size_t>(result.strategy);
  SB_CHECK(s < coop_stats_.size());
  CoopStrategyStats& cs = coop_stats_[s];
  cs.runs++;
  if (result.complete) cs.completed++;
  cs.ticks += result.ticks;
  cs.useful_steps += result.useful_steps;
  cs.wasted_steps += result.wasted_steps;
  cs.idle_ticks += result.idle_ticks;
  cs.worker_deaths += result.worker_deaths;
  publish_metrics();
}

namespace {

// unordered containers serialize through sorted key lists so equal hives
// always produce equal snapshot bytes, whatever their insertion history.
template <typename Map>
std::vector<std::uint64_t> sorted_map_keys(const Map& m) {
  std::vector<std::uint64_t> keys;
  keys.reserve(m.size());
  for (const auto& [key, value] : m) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Leads every hive state, and changes whenever the layout does (3: the
// proof stats and certificates lost their solver-cache counters; 4: the
// ingest stats gained fan_out_batches). An older binary's state starts with
// another tag, or with the traces_ingested count before tags existed, which
// never reaches this value, so its layout is refused rather than misread.
constexpr std::uint64_t kStateLayoutTag = 0x48495645'00000004ULL;  // "HIVE" 4

}  // namespace

std::vector<const Hive::DedupBucket*> Hive::live_dedup_buckets() const {
  std::vector<const DedupBucket*> live;
  for (const DedupBucket& bucket : dedup_buckets_) {
    if (bucket.ids.size() != 0 &&
        dedup_clock_ - bucket.day <= kDedupWindowDays) {
      live.push_back(&bucket);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const DedupBucket* a, const DedupBucket* b) {
              return a->day < b->day;
            });
  return live;
}

std::vector<std::pair<std::uint64_t, std::size_t>> Hive::dedup_window() const {
  std::vector<std::pair<std::uint64_t, std::size_t>> days;
  for (const DedupBucket* bucket : live_dedup_buckets()) {
    days.emplace_back(bucket->day, bucket->ids.size());
  }
  return days;
}

void Hive::save_state(Bytes& out) const {
  put_varint(out, kStateLayoutTag);
  encode_fields(out, stats_);
  encode_fields(out, ingest_stats_);
  encode_fields(out, proof_stats_);

  const auto lock_keys = sorted_map_keys(locks_);
  put_varint(out, lock_keys.size());
  for (const std::uint64_t key : lock_keys) {
    put_varint(out, key);
    locks_.at(key).save_state(out);
  }
  const auto site_keys = sorted_map_keys(sites_);
  put_varint(out, site_keys.size());
  for (const std::uint64_t key : site_keys) {
    put_varint(out, key);
    sites_.at(key).save_state(out);
  }

  // The dedup window: its clock, then each live day's ids, sorted so the
  // bytes never depend on table history.
  put_varint(out, dedup_clock_);
  const auto live = live_dedup_buckets();
  put_varint(out, live.size());
  std::vector<std::uint64_t> ids;
  for (const DedupBucket* bucket : live) {
    ids.clear();
    bucket->ids.for_each([&](std::uint64_t id) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    put_varint(out, bucket->day);
    put_varint(out, ids.size());
    for (const std::uint64_t id : ids) put_varint(out, id);
  }

  put_bool(out, gate_ != nullptr);
  if (gate_ != nullptr) gate_->save_state(out);

  bugs_.save_state(out);
  put_varint(out, fixer_.next_fix_id());
  put_varint(out, prover_.next_id());
  std::uint64_t rng_state[4];
  rng_.export_state(rng_state);
  for (const std::uint64_t word : rng_state) put_varint(out, word);
  put_varint(out, latest_day_seen_);

  std::vector<std::uint64_t> attempted(fix_attempted_bugs_.begin(),
                                       fix_attempted_bugs_.end());
  std::sort(attempted.begin(), attempted.end());
  put_varint(out, attempted.size());
  for (const std::uint64_t id : attempted) put_varint(out, id);

  const auto recurrence_keys = sorted_map_keys(recurrences_);
  put_varint(out, recurrence_keys.size());
  for (const std::uint64_t key : recurrence_keys) {
    put_varint(out, key);
    put_varint(out, recurrences_.at(key));
  }

  put_varint(out, repair_lab_.size());
  for (const RepairLabEntry& entry : repair_lab_) {
    encode_fix_candidate(out, entry.candidate);
    put_str(out, entry.why_not_auto);
  }
  put_varint(out, proofs_.size());
  for (const PublishedProof& published : proofs_) {
    encode_certificate(out, published.certificate);
    put_bool(out, published.revoked);
  }

  for (const CoopStrategyStats& cs : coop_stats_) encode_fields(out, cs);
}

bool Hive::load_state(StateReader& r) {
  if (r.u64() != kStateLayoutTag) {
    r.fail();
    return false;
  }
  decode_fields(r, stats_);
  decode_fields(r, ingest_stats_);
  decode_fields(r, proof_stats_);

  locks_.clear();
  const std::uint64_t n_locks = r.count(2);
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < n_locks && r.ok(); ++i) {
    const std::uint64_t key = r.u64();
    if ((i > 0 && key <= prev_key) || entry_of(ProgramId(key)) == nullptr) {
      r.fail();
      return false;
    }
    prev_key = key;
    if (!locks_[key].load_state(r)) return false;
  }
  sites_.clear();
  const std::uint64_t n_sites = r.count(2);
  prev_key = 0;
  for (std::uint64_t i = 0; i < n_sites && r.ok(); ++i) {
    const std::uint64_t key = r.u64();
    if ((i > 0 && key <= prev_key) || entry_of(ProgramId(key)) == nullptr) {
      r.fail();
      return false;
    }
    prev_key = key;
    if (!sites_[key].load_state(r)) return false;
  }

  dedup_clock_ = r.u64();
  dedup_buckets_.clear();
  const std::uint64_t n_days = r.count(3);
  if (n_days > kDedupBuckets) r.fail();
  if (n_days > 0 && r.ok()) dedup_buckets_.resize(kDedupBuckets);
  std::uint64_t prev_day = 0;
  for (std::uint64_t i = 0; i < n_days && r.ok(); ++i) {
    // Live days only, oldest first, each holding at least one id.
    const std::uint64_t day = r.u64();
    if ((i > 0 && day <= prev_day) || day > dedup_clock_ ||
        dedup_clock_ - day > kDedupWindowDays) {
      r.fail();
      return false;
    }
    prev_day = day;
    DedupBucket& bucket = dedup_buckets_[day % kDedupBuckets];
    bucket.day = day;
    const std::uint64_t n_ids = r.count();
    if (n_ids == 0) r.fail();
    bucket.ids.reserve(n_ids);
    std::uint64_t prev_id = 0;
    for (std::uint64_t k = 0; k < n_ids && r.ok(); ++k) {
      const std::uint64_t id = r.u64();
      if (id <= prev_id) r.fail();  // sorted, unique, never id 0
      prev_id = id;
      bucket.ids.insert(id);
    }
  }

  const bool has_gate = r.boolean();
  if (r.ok() && has_gate != (gate_ != nullptr)) {
    r.fail();  // k-anonymity config mismatch
    return false;
  }
  if (has_gate && !gate_->load_state(r)) return false;

  if (!bugs_.load_state(r)) return false;
  fixer_.set_next_fix_id(r.u64());
  prover_.set_next_id(r.u64());
  std::uint64_t rng_state[4];
  for (std::uint64_t& word : rng_state) word = r.u64();
  rng_.import_state(rng_state);
  latest_day_seen_ = r.u64();

  fix_attempted_bugs_.clear();
  const std::uint64_t n_attempted = r.count();
  std::uint64_t prev_id = 0;
  for (std::uint64_t i = 0; i < n_attempted && r.ok(); ++i) {
    const std::uint64_t id = r.u64();
    if (i > 0 && id <= prev_id) r.fail();
    prev_id = id;
    fix_attempted_bugs_.insert(id);
  }
  recurrences_.clear();
  const std::uint64_t n_recurrences = r.count(2);
  prev_key = 0;
  for (std::uint64_t i = 0; i < n_recurrences && r.ok(); ++i) {
    const std::uint64_t key = r.u64();
    if (i > 0 && key <= prev_key) r.fail();
    prev_key = key;
    recurrences_[key] = r.u64();
  }

  repair_lab_.clear();
  const std::uint64_t n_lab = r.count(4);
  repair_lab_.reserve(n_lab);
  for (std::uint64_t i = 0; i < n_lab && r.ok(); ++i) {
    RepairLabEntry entry;
    if (!decode_fix_candidate(r, entry.candidate)) return false;
    r.str(entry.why_not_auto);
    repair_lab_.push_back(std::move(entry));
  }
  proofs_.clear();
  const std::uint64_t n_proofs = r.count(8);
  proofs_.reserve(n_proofs);
  for (std::uint64_t i = 0; i < n_proofs && r.ok(); ++i) {
    PublishedProof published;
    if (!decode_certificate(r, published.certificate)) return false;
    if (entry_of(published.certificate.program) == nullptr) {
      r.fail();
      return false;
    }
    published.revoked = r.boolean();
    proofs_.push_back(std::move(published));
  }

  for (CoopStrategyStats& cs : coop_stats_) decode_fields(r, cs);
  if (!r.ok()) return false;

  // The run that saved this state already published its counter totals into
  // the process-global registry; baseline so they are not re-published.
  obs_published_stats_ = stats_;
  obs_published_ingest_ = ingest_stats_;
  obs_published_proof_ = proof_stats_;
  obs_published_coop_ = coop_stats_;
  return true;
}

void Hive::save_trees(Bytes& out) const {
  // Corpus order, not map order: deterministic bytes.
  std::uint64_t n = 0;
  for (const auto& entry : *corpus_) {
    if (trees_.count(entry.program.id.value) != 0) n++;
  }
  put_varint(out, n);
  for (const auto& entry : *corpus_) {
    auto it = trees_.find(entry.program.id.value);
    if (it == trees_.end()) continue;
    put_varint(out, entry.program.id.value);
    put_blob(out, it->second.encode());
  }
}

bool Hive::load_trees(StateReader& r) {
  trees_.clear();
  const std::uint64_t n = r.count(2);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::uint64_t program = r.u64();
    Bytes wire;
    r.blob(wire);
    if (!r.ok()) return false;
    if (entry_of(ProgramId(program)) == nullptr) {
      r.fail();  // tree for a program outside this corpus
      return false;
    }
    // The hardened v2 tree decoder validates structure; a torn or
    // bit-flipped tree comes back nullopt, never a malformed tree.
    auto tree = ExecTree::decode(wire);
    if (!tree || tree->program().value != program) {
      r.fail();
      return false;
    }
    if (!trees_.emplace(program, std::move(*tree)).second) {
      r.fail();  // duplicate program
      return false;
    }
  }
  return r.ok();
}

std::vector<Bytes> Hive::regression_inputs() const {
  std::vector<Bytes> wires;
  for (const Bug& bug : bugs_.all()) {
    // Scalar-only sightings leave the exemplar default (outcome kOk);
    // nothing to replay for those.
    if (bug.exemplar.outcome == Outcome::kOk) continue;
    Trace t = bug.exemplar;
    // Sanitize identity: trace id 0 skips the dedup set (so a warm-started
    // hive re-ingests it), and pod/day/guided are the saving run's context,
    // meaningless — and misleading — in the importing run.
    t.id = TraceId(0);
    t.pod = PodId(0);
    t.day = 0;
    t.guided = false;
    wires.push_back(encode_trace(t));
  }
  return wires;
}

}  // namespace softborg
