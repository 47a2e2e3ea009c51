#include "pod/pod.h"

#include <algorithm>

#include "common/check.h"
#include "common/flat_hash.h"
#include "minivm/decode.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace softborg {

namespace {
// Fleet-wide pod telemetry: every pod instance feeds the same counters.
struct PodMetrics {
  obs::Counter& runs =
      obs::MetricsRegistry::global().counter("pod.runs_total");
  obs::Counter& failures =
      obs::MetricsRegistry::global().counter("pod.failures_total");
  obs::Counter& fix_interventions =
      obs::MetricsRegistry::global().counter("pod.fix_interventions_total");
  obs::Counter& guided_runs =
      obs::MetricsRegistry::global().counter("pod.guided_runs_total");

  static PodMetrics& get() {
    static PodMetrics m;
    return m;
  }
};

// Separates the trace id key from every other value hashed out of a pod's
// seed.
constexpr std::uint64_t kTraceIdKeySalt = 0x7ace'1d00'5eed'0001ULL;

}  // namespace

Pod::Pod(PodId id, const CorpusEntry& entry, UserProfile profile,
         PodConfig config, std::uint64_t seed)
    : id_(id),
      entry_(&entry),
      profile_(std::move(profile)),
      config_(config),
      rng_(seed),
      // Hashed from the seed rather than drawn from rng_, so the input and
      // schedule streams stay where they were; the pod id keeps two pods
      // that share a seed apart.
      trace_id_key_(mix64(mix64(seed ^ kTraceIdKeySalt) ^ id.value) | 1) {
  SB_CHECK(profile_.input_prefs.empty() ||
           profile_.input_prefs.size() == entry.domains.size());
}

// Records `fix` as installed unless it already is; true means the caller
// adds it to fixes_, so the held stream is stale and is dropped here.
bool Pod::add_fix_id(FixId fix) {
  if (std::count(installed_fix_ids_.begin(), installed_fix_ids_.end(),
                 fix.value) != 0) {
    return false;
  }
  installed_fix_ids_.push_back(fix.value);
  decoded_.reset();
  return true;
}

bool Pod::install(const GuardPatch& patch) {
  if (patch.program != program() || !add_fix_id(patch.id)) return false;
  fixes_.guards.push_back(patch);
  return true;
}

bool Pod::install(const CrashGuardFix& fix) {
  if (fix.program != program() || !add_fix_id(fix.id)) return false;
  fixes_.crash_guards.push_back(fix);
  return true;
}

bool Pod::install(const LockAvoidanceFix& fix) {
  if (fix.program != program() || !add_fix_id(fix.id)) return false;
  fixes_.lock_fixes.push_back(fix);
  return true;
}

void Pod::push_guidance(GuidanceDirective directive) {
  if (directive.program != program()) return;
  if (!rng_.next_bool(profile_.guidance_compliance)) return;  // declined
  guidance_.push_back(std::move(directive));
}

std::uint32_t Pod::draws_for_day() {
  // Cheap Poisson-ish draw: rate r gives floor(r) runs plus one more with
  // probability frac(r), jittered by +/-1 occasionally.
  const double rate = profile_.executions_per_day;
  std::uint32_t n = static_cast<std::uint32_t>(rate);
  if (rng_.next_bool(rate - static_cast<double>(n))) n++;
  if (n > 0 && rng_.next_bool(0.1)) n--;
  if (rng_.next_bool(0.1)) n++;
  return n;
}

std::vector<Value> Pod::draw_inputs() {
  std::vector<Value> inputs;
  inputs.reserve(entry_->domains.size());
  for (std::size_t i = 0; i < entry_->domains.size(); ++i) {
    const InputDomain& domain = profile_.input_prefs.empty()
                                    ? entry_->domains[i]
                                    : profile_.input_prefs[i];
    inputs.push_back(rng_.next_in(domain.lo, domain.hi));
  }
  return inputs;
}

PodRun Pod::run_once(std::uint64_t day) {
  SB_SPAN("pod.run");
  // Consume a guidance directive if one is queued.
  std::optional<GuidanceDirective> directive;
  if (!guidance_.empty()) {
    directive = std::move(guidance_.front());
    guidance_.pop_front();
  }

  ExecConfig cfg;
  cfg.inputs = directive && directive->input_seed ? *directive->input_seed
                                                  : draw_inputs();
  cfg.seed = rng_();
  cfg.max_steps = config_.max_steps;
  cfg.granularity = config_.granularity;
  if (directive && directive->schedule) {
    cfg.schedule_plan = &*directive->schedule;
  }
  if (directive && directive->faults) cfg.fault_plan = &*directive->faults;
  cfg.collect_branch_events = config_.sampling_rate > 0;

  // Fetched on the first run rather than in the constructor, so building a
  // fleet does no decode work; pods with equal fix sets share one stream.
  if (decoded_ == nullptr) {
    decoded_ = predecode_cached(entry_->program, &fixes_);
  }
  ExecResult exec = execute(entry_->program, *decoded_, cfg);

  // Inferred end-user feedback: a hung program is usually force-killed.
  if (exec.trace.outcome == Outcome::kHang &&
      rng_.next_bool(profile_.kill_on_hang)) {
    exec.trace.outcome = Outcome::kUserKilled;
  }

  // mix64 is a bijection with mix64(0) == 0, and multiplying by an odd key
  // is invertible mod 2^64: a pod's ids never repeat and are 0 only for seq
  // 0, which no run uses (id 0 means "skip dedup"). Without the key nothing
  // in the id reads the pod back.
  exec.trace.id = TraceId(mix64(mix64(next_trace_seq_++) * trace_id_key_));
  exec.trace.pod = id_;
  exec.trace.day = day;
  exec.trace.guided = directive.has_value();

  if (obs::tracing_enabled()) {
    // Birth of the causal chain: the same (id, program) derivation every
    // downstream process repeats, so this event joins theirs by trace id.
    obs::TraceContext ctx{obs::causal_trace_id(exec.trace.id.value,
                                               exec.trace.program.value),
                          0};
    ctx = obs::with_hop(ctx, obs::Hop::kPod);
    obs::Recorder::record(obs::EventKind::kPodEmit, ctx,
                          static_cast<std::uint32_t>(id_.value));
  }

  PodRun run;
  run.fix_intervened = exec.fix_intervened;
  run.deadlock_cycle = std::move(exec.deadlock_cycle);

  // Coordinated sampling: site-level observations instead of the path.
  if (config_.sampling_rate > 0) {
    SampledTrace st;
    st.program = program();
    st.pod = id_;
    st.outcome = exec.trace.outcome;
    for (const auto& ev : exec.branch_events) {
      if (sample_site(ev.site, id_, config_.sampling_rate)) {
        st.observations.push_back({ev.site, ev.taken});
      }
    }
    run.sampled = std::move(st);
  }

  run.trace = anonymize(exec.trace, config_.anonymize);

  stats_.runs++;
  if (run.trace.outcome != Outcome::kOk) stats_.failures++;
  if (exec.fix_intervened) stats_.fix_interventions++;
  if (directive) stats_.guided_runs++;
  if (obs::enabled()) {
    auto& m = PodMetrics::get();
    m.runs.add();
    if (run.trace.outcome != Outcome::kOk) m.failures.add();
    if (exec.fix_intervened) m.fix_interventions.add();
    if (directive) m.guided_runs.add();
  }
  return run;
}

void Pod::save_state(Bytes& out) const {
  std::uint64_t rng_state[4];
  rng_.export_state(rng_state);
  for (const std::uint64_t word : rng_state) put_varint(out, word);
  put_varint(out, fixes_.guards.size());
  for (const GuardPatch& p : fixes_.guards) put_blob(out, encode_guard_patch(p));
  put_varint(out, fixes_.crash_guards.size());
  for (const CrashGuardFix& f : fixes_.crash_guards)
    put_blob(out, encode_crash_guard(f));
  put_varint(out, fixes_.lock_fixes.size());
  for (const LockAvoidanceFix& f : fixes_.lock_fixes)
    put_blob(out, encode_lock_fix(f));
  put_varint(out, installed_fix_ids_.size());
  for (const std::uint64_t id : installed_fix_ids_) put_varint(out, id);
  put_varint(out, guidance_.size());
  for (const GuidanceDirective& g : guidance_) put_blob(out, encode_guidance(g));
  encode_fields(out, stats_);
  put_varint(out, next_trace_seq_);
}

bool Pod::load_state(StateReader& r) {
  std::uint64_t rng_state[4];
  for (std::uint64_t& word : rng_state) word = r.u64();
  rng_.import_state(rng_state);

  // Each fix/guidance record round-trips through its validated protocol
  // decoder, so a bit-flipped snapshot fails here rather than installing a
  // malformed fix into the interpreter.
  fixes_ = FixSet{};
  decoded_.reset();
  const std::uint64_t n_guards = r.count();
  fixes_.guards.reserve(n_guards);
  for (std::uint64_t i = 0; i < n_guards && r.ok(); ++i) {
    Bytes wire;
    r.blob(wire);
    auto p = r.ok() ? decode_guard_patch(wire) : std::nullopt;
    if (!p || p->program != program()) {
      r.fail();
      return false;
    }
    fixes_.guards.push_back(std::move(*p));
  }
  const std::uint64_t n_crash = r.count();
  fixes_.crash_guards.reserve(n_crash);
  for (std::uint64_t i = 0; i < n_crash && r.ok(); ++i) {
    Bytes wire;
    r.blob(wire);
    auto f = r.ok() ? decode_crash_guard(wire) : std::nullopt;
    if (!f || f->program != program()) {
      r.fail();
      return false;
    }
    fixes_.crash_guards.push_back(std::move(*f));
  }
  const std::uint64_t n_lock = r.count();
  fixes_.lock_fixes.reserve(n_lock);
  for (std::uint64_t i = 0; i < n_lock && r.ok(); ++i) {
    Bytes wire;
    r.blob(wire);
    auto f = r.ok() ? decode_lock_fix(wire) : std::nullopt;
    if (!f || f->program != program()) {
      r.fail();
      return false;
    }
    fixes_.lock_fixes.push_back(std::move(*f));
  }
  installed_fix_ids_.clear();
  const std::uint64_t n_ids = r.count();
  installed_fix_ids_.reserve(n_ids);
  for (std::uint64_t i = 0; i < n_ids && r.ok(); ++i) {
    installed_fix_ids_.push_back(r.u64());
  }
  if (r.ok() && installed_fix_ids_.size() != fixes_.size()) {
    r.fail();  // the id ledger and the fix set must agree
    return false;
  }
  guidance_.clear();
  const std::uint64_t n_guidance = r.count();
  for (std::uint64_t i = 0; i < n_guidance && r.ok(); ++i) {
    Bytes wire;
    r.blob(wire);
    auto g = r.ok() ? decode_guidance(wire) : std::nullopt;
    if (!g || g->program != program()) {
      r.fail();
      return false;
    }
    guidance_.push_back(std::move(*g));
  }
  decode_fields(r, stats_);
  next_trace_seq_ = r.u64();
  if (r.ok() && next_trace_seq_ == 0) r.fail();  // seq starts at 1
  return r.ok();
}

}  // namespace softborg
