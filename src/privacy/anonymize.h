// Trace anonymization and the privacy/utility trade-off (paper §3.1,
// after Castro et al. [6]).
//
// A trace's branch bit-vector is a quasi-identifier: a unique path can
// re-identify the pod (user) that produced it. SoftBorg's ingress applies:
//   * field scrubbing — pod identity stripped/bucketed, timestamps
//     quantized, syscall summaries coarsened;
//   * bit suppression — every (deterministically chosen) n-th recorded bit
//     dropped, so a released trace specifies a *family* of paths rather
//     than one path (reduces information content, measurably);
//   * a k-anonymity gate — a path is released to analysis only once at
//     least k distinct pods have produced it; rarer paths stay buffered.
//
// The information content of what is released is quantified in entropy.h;
// experiment E8 sweeps these knobs against bug-localization utility.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fields.h"
#include "common/state_wire.h"
#include "trace/trace.h"

namespace softborg {

struct AnonymizeConfig {
  bool strip_pod_id = true;
  std::uint32_t pod_bucket_count = 0;  // >0: keep pod identity mod buckets
  bool quantize_day = true;            // round capture day to weeks
  bool coarsen_syscalls = true;        // drop per-call indices
  std::uint32_t bit_suppression = 0;   // drop every n-th bit (0 = keep all)

  static constexpr auto fields() {
    using C = AnonymizeConfig;
    return std::tuple{field(&C::strip_pod_id), field(&C::pod_bucket_count),
                      field(&C::quantize_day), field(&C::coarsen_syscalls),
                      field(&C::bit_suppression)};
  }
};

// Scrubs one trace in place according to `config`. Suppressed bits shrink
// the bit-vector (the hive then treats the trace as specifying a path
// family; such traces are used for site statistics, not tree merging).
Trace anonymize(const Trace& t, const AnonymizeConfig& config);

// True if the trace still contains direct identifiers.
bool has_identifiers(const Trace& t);

// k-anonymity release gate: traces are buffered per path-hash until the
// path has been produced by at least k distinct pods, then the whole bucket
// is released (and future traces with that path pass straight through).
class KAnonymityGate {
 public:
  explicit KAnonymityGate(std::size_t k) : k_(k) {}

  // Returns the traces released by this arrival (possibly empty; possibly
  // the whole backlog of this path).
  std::vector<Trace> add(Trace t);

  std::size_t buffered() const;
  std::size_t released_paths() const { return released_.size(); }
  std::size_t k() const { return k_; }

  // Durable-store serialization (sorted keys, so equal gates give equal
  // bytes). k itself is config, not state — the loader must have built the
  // gate with the same k; load_state rejects a mismatch so a snapshot from a
  // differently-configured run cannot silently change release semantics.
  void save_state(Bytes& out) const;
  bool load_state(StateReader& r);

 private:
  struct Bucket {
    std::vector<Trace> pending;
    std::unordered_set<std::uint64_t> pods;
  };

  std::size_t k_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
  std::unordered_set<std::uint64_t> released_;
};

}  // namespace softborg
