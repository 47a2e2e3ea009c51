// The pod: SoftBorg's per-program-instance runtime (paper §3, Fig. 1).
//
// A pod "lies underneath" one user's instance of a program P. On every
// user-triggered execution it:
//   1. draws inputs from that user's own distribution (or consumes a hive
//      guidance directive instead — input seed, schedule steering, fault
//      injection);
//   2. runs P under the interpreter with all installed fixes active;
//   3. classifies the outcome, inferring end-user feedback (a hung program
//      is usually force-killed by the user);
//   4. captures the by-products at the configured granularity, optionally
//      producing coordinated-sampling site observations instead of the full
//      bit-vector;
//   5. anonymizes and ships the trace to the hive.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "common/state_wire.h"
#include "minivm/corpus.h"
#include "minivm/fixes.h"
#include "minivm/interp.h"
#include "pod/protocol.h"
#include "privacy/anonymize.h"
#include "trace/sampling.h"
#include "trace/trace.h"

namespace softborg {

// How this simulated user exercises the program. Heterogeneous profiles are
// what makes collective aggregation worthwhile: no single user covers much,
// together they cover a lot (paper §2).
struct UserProfile {
  // Per input slot, the subrange this user actually draws from; empty means
  // the full program domain.
  std::vector<InputDomain> input_prefs;
  double executions_per_day = 5.0;
  // Probability a hang is force-killed by the user (inferred feedback).
  double kill_on_hang = 0.8;
  // Fraction of guidance directives this pod honors.
  double guidance_compliance = 1.0;
};

struct PodConfig {
  Granularity granularity = Granularity::kTaintedBranches;
  std::uint32_t sampling_rate = 0;  // >0: coordinated sampling, 1/rate sites
  // Default keeps pod identity (trusted deployment); privacy experiments
  // turn the knobs up and measure the utility cost (E8).
  AnonymizeConfig anonymize{.strip_pod_id = false, .quantize_day = false};
  std::uint64_t max_steps = 200'000;

  static constexpr auto fields() {
    using C = PodConfig;
    return std::tuple{field(&C::granularity), field(&C::sampling_rate),
                      field(&C::anonymize), field(&C::max_steps)};
  }
};

struct PodRun {
  Trace trace;  // already anonymized
  std::optional<SampledTrace> sampled;
  bool fix_intervened = false;
  std::vector<LockEvent> deadlock_cycle;
};

struct PodStats {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;       // crash/deadlock/hang/user-killed
  std::uint64_t fix_interventions = 0;
  std::uint64_t guided_runs = 0;

  bool operator==(const PodStats&) const = default;

  static constexpr auto fields() {
    using S = PodStats;
    return std::tuple{field(&S::runs), field(&S::failures),
                      field(&S::fix_interventions), field(&S::guided_runs)};
  }
};

class Pod {
 public:
  Pod(PodId id, const CorpusEntry& entry, UserProfile profile,
      PodConfig config, std::uint64_t seed);

  PodId id() const { return id_; }
  ProgramId program() const { return entry_->program.id; }

  // --- fix installation (idempotent by FixId) ------------------------------
  // An install that changes the fix set drops the held decoded stream; the
  // next run fetches the stream for the new set.
  bool install(const GuardPatch& patch);
  bool install(const CrashGuardFix& fix);
  bool install(const LockAvoidanceFix& fix);
  const FixSet& fixes() const { return fixes_; }

  // --- guidance ------------------------------------------------------------
  // Queues a directive; the next eligible run consumes it.
  void push_guidance(GuidanceDirective directive);
  std::size_t pending_guidance() const { return guidance_.size(); }

  // --- execution -----------------------------------------------------------
  // Number of user-triggered executions for this virtual day.
  std::uint32_t draws_for_day();
  // Performs one execution and returns the (anonymized) by-products. The
  // first run after construction, install() or load_state() fetches the
  // decoded stream of (program, fixes) from predecode_cached() and holds the
  // shared copy; later runs execute it with no lookup.
  PodRun run_once(std::uint64_t day);

  const PodStats& stats() const { return stats_; }

  // Durable-store serialization of the pod's mutable state (rng, installed
  // fixes, queued guidance, stats, trace-sequence counter). Identity and
  // config are not persisted: the resuming World reconstructs the pod with
  // the same (id, entry, profile, config) and then overwrites its state.
  // load_state validates every embedded fix/guidance wire record and that it
  // targets this pod's program; false means corrupt — discard the pod.
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);

 private:
  std::vector<Value> draw_inputs();
  bool add_fix_id(FixId fix);

  PodId id_;
  const CorpusEntry* entry_;
  UserProfile profile_;
  PodConfig config_;
  Rng rng_;
  FixSet fixes_;
  // Decoded stream of (program, fixes_), shared with the decode cache; null
  // until the next run whenever fixes_ changes.
  std::shared_ptr<const DecodedProgram> decoded_;
  std::vector<std::uint64_t> installed_fix_ids_;
  std::deque<GuidanceDirective> guidance_;
  PodStats stats_;
  std::uint64_t next_trace_seq_ = 1;
  // Odd key of this pod's trace ids, derived from (seed, id) at
  // construction and never sent anywhere (DESIGN.md, "Trace ids").
  std::uint64_t trace_id_key_;
};

}  // namespace softborg
