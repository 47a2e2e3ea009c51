#include "sym/solver_cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/flat_hash.h"

namespace softborg {

const char* cache_lookup_name(CacheLookup l) {
  switch (l) {
    case CacheLookup::kMiss: return "miss";
    case CacheLookup::kExactHit: return "exact-hit";
    case CacheLookup::kUnsatSubsumed: return "unsat-subsumed";
    case CacheLookup::kModelReused: return "model-reused";
  }
  return "?";
}

namespace {

// Literal serialization tags. The encoding is pre-order with known arities,
// so concatenated literals stay self-delimiting.
constexpr std::uint8_t kTagConst = 0;
constexpr std::uint8_t kTagInput = 1;
constexpr std::uint8_t kTagUnknown = 2;
constexpr std::uint8_t kTagBin = 3;
constexpr std::uint8_t kTagBackref = 4;

}  // namespace

SolverCache::Hash128 SolverCache::hash128(const Bytes& buf) {
  std::uint64_t a = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : buf) {
    a = (a ^ byte) * 0x100000001b3ULL;
  }
  std::uint64_t b = 0x9e3779b97f4a7c15ULL;
  for (const std::uint8_t byte : buf) {
    b = (b + byte) * 0xff51afd7ed558ccdULL;
    b ^= b >> 29;
  }
  return {mix64(a), mix64(b ^ (buf.size() * 0xd6e8feb86659fd93ULL))};
}

SolverCache::SolverCache(SolverCacheConfig config) : config_(config) {
  SB_CHECK(config_.max_entries >= 1);
  exact_.resize(64);  // grows on demand, power of two
}

void SolverCache::serialize_literal(const Literal& lit, bool canon,
                                    Bytes& out) {
  out.push_back(lit.expected ? 1 : 0);
  memo_.clear();
  stack_.clear();
  stack_.push_back(lit.cond.get());
  std::uint32_t next_ordinal = 0;
  while (!stack_.empty()) {
    const ExprNode* n = stack_.back();
    stack_.pop_back();
    const auto [it, fresh] = memo_.try_emplace(n, next_ordinal);
    if (!fresh) {
      // Shared subtree: emit a backref instead of re-walking. Keys are
      // therefore sensitive to the DAG's sharing pattern, which is fine:
      // expression construction is deterministic, so equal formulas built
      // by the same code share identically.
      out.push_back(kTagBackref);
      put_varint(out, it->second);
      continue;
    }
    next_ordinal++;
    switch (n->kind) {
      case ExprKind::kConst:
        out.push_back(kTagConst);
        put_varint_signed(out, n->cval);
        break;
      case ExprKind::kInput:
      case ExprKind::kUnknown: {
        const std::uint8_t kind = n->kind == ExprKind::kInput ? 0 : 1;
        out.push_back(kind == 0 ? kTagInput : kTagUnknown);
        if (canon) {
          const std::uint64_t vkey =
              (static_cast<std::uint64_t>(kind) << 32) | n->index;
          const auto cit = canon_map_.find(vkey);
          SB_CHECK(cit != canon_map_.end());
          put_varint(out, cit->second);
        } else {
          put_varint(out, n->index);
          var_emissions_.push_back({kind, n->index});
        }
        break;
      }
      case ExprKind::kBin:
        out.push_back(kTagBin);
        out.push_back(static_cast<std::uint8_t>(n->op));
        // lhs serializes first: pushed last, popped first.
        stack_.push_back(n->rhs.get());
        stack_.push_back(n->lhs.get());
        break;
    }
  }
}

void SolverCache::canonicalize(const PathConstraint& pc,
                               const std::vector<VarDomain>& input_domains,
                               const std::vector<VarDomain>& unknown_domains,
                               CanonicalQuery& q) {
  q.lits.clear();
  q.lit_mask = 0;
  q.vars.clear();
  q.input_raw.clear();
  q.unknown_raw.clear();

  // Pass 1: raw serialization per literal — hash plus the sequence of
  // variable occurrences (in emission order, for the renaming below).
  var_emissions_.clear();
  lit_var_ranges_.clear();
  struct LitRef {
    Hash128 h;
    std::uint32_t index;
  };
  std::vector<LitRef> order;
  order.reserve(pc.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    buf_.clear();
    const std::size_t begin = var_emissions_.size();
    serialize_literal(pc[i], false, buf_);
    lit_var_ranges_.push_back({begin, var_emissions_.size()});
    order.push_back({hash128(buf_), static_cast<std::uint32_t>(i)});
  }

  // Clause normalization: sort by raw hash (order-independent) and drop
  // duplicate clauses (A ∧ A = A).
  std::sort(order.begin(), order.end(),
            [](const LitRef& x, const LitRef& y) { return x.h < y.h; });
  order.erase(std::unique(order.begin(), order.end(),
                          [](const LitRef& x, const LitRef& y) {
                            return x.h == y.h;
                          }),
              order.end());

  // Canonical renaming: first occurrence over the sorted clause order.
  // Heuristic, not a true canonical form — renamed twins whose clause
  // hashes sort differently get distinct keys (a missed hit, never a wrong
  // one): key equality implies the queries are renamings of each other
  // with identical per-variable domains.
  canon_map_.clear();
  for (const LitRef& lr : order) {
    const auto [begin, end] = lit_var_ranges_[lr.index];
    for (std::size_t k = begin; k < end; ++k) {
      const auto [kind, index] = var_emissions_[k];
      const std::uint64_t vkey =
          (static_cast<std::uint64_t>(kind) << 32) | index;
      const auto [it, fresh] = canon_map_.try_emplace(vkey, 0);
      if (!fresh) continue;
      if (kind == 0) {
        it->second = static_cast<std::uint32_t>(q.input_raw.size());
        q.input_raw.push_back(index);
      } else {
        it->second = static_cast<std::uint32_t>(q.unknown_raw.size());
        q.unknown_raw.push_back(index);
      }
    }
  }

  // Pass 2: canonical serialization of the whole query, domains appended —
  // the exact key covers formula shape AND the box it was decided over.
  auto query_domain = [&](std::uint8_t kind, std::uint32_t raw) {
    const std::vector<VarDomain>& doms =
        kind == 0 ? input_domains : unknown_domains;
    return raw < doms.size() ? doms[raw] : VarDomain{0, 0};
  };
  buf_.clear();
  put_varint(buf_, order.size());
  for (const LitRef& lr : order) serialize_literal(pc[lr.index], true, buf_);
  put_varint(buf_, q.input_raw.size());
  for (const std::uint32_t raw : q.input_raw) {
    const VarDomain d = query_domain(0, raw);
    put_varint_signed(buf_, d.lo);
    put_varint_signed(buf_, d.hi);
  }
  put_varint(buf_, q.unknown_raw.size());
  for (const std::uint32_t raw : q.unknown_raw) {
    const VarDomain d = query_domain(1, raw);
    put_varint_signed(buf_, d.lo);
    put_varint_signed(buf_, d.hi);
  }
  q.key = hash128(buf_);

  for (const LitRef& lr : order) {
    q.lits.push_back(lr.h);
    q.lit_mask |= 1ULL << (lr.h.a & 63);
  }
  for (const std::uint32_t raw : q.input_raw) {
    const VarDomain d = query_domain(0, raw);
    q.vars.push_back({0, raw, d.lo, d.hi});
  }
  for (const std::uint32_t raw : q.unknown_raw) {
    const VarDomain d = query_domain(1, raw);
    q.vars.push_back({1, raw, d.lo, d.hi});
  }
  std::sort(q.vars.begin(), q.vars.end());
}

const SolverCache::ExactSlot* SolverCache::find_exact(
    const Hash128& key) const {
  if (key.a == 0) return nullptr;
  const std::size_t mask = exact_.size() - 1;
  std::size_t slot = key.a & mask;
  while (exact_[slot].key != 0) {
    if (exact_[slot].key == key.a) {
      return exact_[slot].check == key.b ? &exact_[slot] : nullptr;
    }
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

void SolverCache::insert_exact(const Hash128& key, SolveStatus status,
                               std::uint32_t model_index) {
  // Key part 0 doubles as the empty-slot sentinel; a genuine zero hash (one
  // in 2^64) is simply never cached.
  if (key.a == 0) return;
  if (exact_count_ >= config_.max_entries) {
    // Generational eviction: clear the table (and the canonical models it
    // references) wholesale. O(1) amortized, matches the ReplayCache.
    std::fill(exact_.begin(), exact_.end(), ExactSlot{});
    canon_models_.clear();
    exact_count_ = 0;
    stats_.resets++;
    if (model_index != kNoModel) return;  // the model was just cleared too
  }
  if ((exact_count_ + 1) * 2 > exact_.size()) {
    std::vector<ExactSlot> old = std::move(exact_);
    exact_.assign(old.size() * 2, ExactSlot{});
    const std::size_t mask = exact_.size() - 1;
    for (const ExactSlot& s : old) {
      if (s.key == 0) continue;
      std::size_t slot = s.key & mask;
      while (exact_[slot].key != 0) slot = (slot + 1) & mask;
      exact_[slot] = s;
    }
  }
  const std::size_t mask = exact_.size() - 1;
  std::size_t slot = key.a & mask;
  while (exact_[slot].key != 0) {
    if (exact_[slot].key == key.a) {
      // Same key part, possibly stale check: replace in place.
      exact_[slot] = {key.a, key.b, status, model_index};
      return;
    }
    slot = (slot + 1) & mask;
  }
  exact_[slot] = {key.a, key.b, status, model_index};
  exact_count_++;
}

bool SolverCache::rebuild_model(const CanonicalQuery& q, const CanonModel& cm,
                                const PathConstraint& pc,
                                const std::vector<VarDomain>& input_domains,
                                const std::vector<VarDomain>& unknown_domains,
                                Assignment& out) const {
  if (cm.inputs.size() != q.input_raw.size() ||
      cm.unknowns.size() != q.unknown_raw.size()) {
    return false;
  }
  // Start from the query box's low corner (what solve_path returns for
  // unconstrained variables), then graft the cached values in.
  std::size_t num_inputs = input_domains.size();
  std::size_t num_unknowns = unknown_domains.size();
  for (const VarBox& v : q.vars) {
    if (v.kind == 0) {
      num_inputs = std::max<std::size_t>(num_inputs, v.index + 1);
    } else {
      num_unknowns = std::max<std::size_t>(num_unknowns, v.index + 1);
    }
  }
  out.inputs.assign(num_inputs, 0);
  for (std::size_t i = 0; i < input_domains.size(); ++i) {
    out.inputs[i] = input_domains[i].lo;
  }
  out.unknowns.assign(num_unknowns, 0);
  for (std::size_t j = 0; j < unknown_domains.size(); ++j) {
    out.unknowns[j] = unknown_domains[j].lo;
  }
  auto in_domain = [](const std::vector<VarDomain>& doms, std::uint32_t raw,
                      Value v) {
    const VarDomain d = raw < doms.size() ? doms[raw] : VarDomain{0, 0};
    return v >= d.lo && v <= d.hi;
  };
  for (std::size_t cid = 0; cid < q.input_raw.size(); ++cid) {
    const std::uint32_t raw = q.input_raw[cid];
    if (!in_domain(input_domains, raw, cm.inputs[cid])) return false;
    out.inputs[raw] = cm.inputs[cid];
  }
  for (std::size_t cid = 0; cid < q.unknown_raw.size(); ++cid) {
    const std::uint32_t raw = q.unknown_raw[cid];
    if (!in_domain(unknown_domains, raw, cm.unknowns[cid])) return false;
    out.unknowns[raw] = cm.unknowns[cid];
  }
  // Exact verification makes SAT hits sound even under key collision.
  return satisfies(pc, out);
}

bool SolverCache::subsumed_unsat(const CanonicalQuery& q) const {
  auto var_lt = [](const VarBox& x, const VarBox& y) {
    return x.kind != y.kind ? x.kind < y.kind : x.index < y.index;
  };
  for (const UnsatCore& core : unsat_cores_) {
    if (core.lits.size() > q.lits.size()) continue;
    // One-word prefilter: every core clause's signature bit must be set.
    if ((core.lit_mask & ~q.lit_mask) != 0) continue;
    if (!std::includes(q.lits.begin(), q.lits.end(), core.lits.begin(),
                       core.lits.end())) {
      continue;
    }
    // Domain containment: the cached proof refuted the core's clauses over
    // the core's box; it transfers only if the query's box is inside it for
    // every variable the core references. Clause identity is raw (variable
    // names matter) — renaming is unsound for subset reasoning.
    bool contained = true;
    auto qi = q.vars.begin();
    for (const VarBox& cv : core.vars) {
      while (qi != q.vars.end() && var_lt(*qi, cv)) ++qi;
      if (qi == q.vars.end() || qi->kind != cv.kind ||
          qi->index != cv.index || qi->lo < cv.lo || qi->hi > cv.hi) {
        contained = false;
        break;
      }
    }
    if (contained) return true;
  }
  return false;
}

bool SolverCache::reuse_model(const CanonicalQuery& q,
                              const PathConstraint& pc,
                              const std::vector<VarDomain>& input_domains,
                              const std::vector<VarDomain>& unknown_domains,
                              Assignment& out) const {
  const std::size_t probes =
      std::min(config_.model_probe_limit, models_.size());
  for (std::size_t p = 0; p < probes; ++p) {
    const Assignment& cand = models_[models_.size() - 1 - p];  // newest first
    CanonModel cm;
    cm.inputs.reserve(q.input_raw.size());
    for (const std::uint32_t raw : q.input_raw) {
      cm.inputs.push_back(raw < cand.inputs.size() ? cand.inputs[raw] : 0);
    }
    cm.unknowns.reserve(q.unknown_raw.size());
    for (const std::uint32_t raw : q.unknown_raw) {
      cm.unknowns.push_back(raw < cand.unknowns.size() ? cand.unknowns[raw]
                                                       : 0);
    }
    if (rebuild_model(q, cm, pc, input_domains, unknown_domains, out)) {
      return true;
    }
  }
  return false;
}

std::uint32_t SolverCache::store_canon_model(const CanonicalQuery& q,
                                             const Assignment& model) {
  CanonModel cm;
  cm.inputs.reserve(q.input_raw.size());
  for (const std::uint32_t raw : q.input_raw) {
    cm.inputs.push_back(raw < model.inputs.size() ? model.inputs[raw] : 0);
  }
  cm.unknowns.reserve(q.unknown_raw.size());
  for (const std::uint32_t raw : q.unknown_raw) {
    cm.unknowns.push_back(raw < model.unknowns.size() ? model.unknowns[raw]
                                                      : 0);
  }
  canon_models_.push_back(std::move(cm));
  return static_cast<std::uint32_t>(canon_models_.size() - 1);
}

void SolverCache::insert_result(const CanonicalQuery& q,
                                const SolveResult& r) {
  stats_.insertions++;
  std::uint32_t model_index = kNoModel;
  if (r.status == SolveStatus::kSat) model_index = store_canon_model(q, r.model);
  insert_exact(q.key, r.status, model_index);
  if (r.status == SolveStatus::kUnsat) {
    if (unsat_cores_.size() >= config_.max_unsat_cores) {
      unsat_cores_.erase(unsat_cores_.begin());
    }
    unsat_cores_.push_back({q.lits, q.lit_mask, q.vars});
  } else if (r.status == SolveStatus::kSat) {
    if (models_.size() >= config_.max_models) models_.erase(models_.begin());
    models_.push_back(r.model);
  }
}

SolveResult SolverCache::solve(const PathConstraint& pc,
                               const std::vector<VarDomain>& input_domains,
                               const std::vector<VarDomain>& unknown_domains,
                               const SolverOptions& options,
                               CacheLookup* outcome) {
  auto report = [&](CacheLookup l) {
    if (outcome != nullptr) *outcome = l;
  };
  // An empty domain (lo > hi) breaks the box-containment reasoning; such
  // queries bypass the cache entirely.
  for (const VarDomain& d : input_domains) {
    if (d.lo > d.hi) {
      report(CacheLookup::kMiss);
      return solve_path(pc, input_domains, unknown_domains, options);
    }
  }
  for (const VarDomain& d : unknown_domains) {
    if (d.lo > d.hi) {
      report(CacheLookup::kMiss);
      return solve_path(pc, input_domains, unknown_domains, options);
    }
  }

  stats_.lookups++;
  canonicalize(pc, input_domains, unknown_domains, query_);

  // 1. Exact canonical hit.
  if (const ExactSlot* slot = find_exact(query_.key)) {
    if (slot->status == SolveStatus::kUnsat) {
      stats_.exact_hits++;
      report(CacheLookup::kExactHit);
      SolveResult r;
      r.status = SolveStatus::kUnsat;
      return r;
    }
    if (slot->status == SolveStatus::kSat && slot->model != kNoModel &&
        slot->model < canon_models_.size()) {
      SolveResult r;
      if (rebuild_model(query_, canon_models_[slot->model], pc, input_domains,
                        unknown_domains, r.model)) {
        stats_.exact_hits++;
        report(CacheLookup::kExactHit);
        r.status = SolveStatus::kSat;
        return r;
      }
    }
    // Collision or unverifiable witness: fall through as a miss (the fresh
    // result below replaces the slot).
  }

  // 2. Cached UNSAT subset over a containing box proves UNSAT.
  if (subsumed_unsat(query_)) {
    stats_.unsat_subsumed++;
    stats_.insertions++;
    insert_exact(query_.key, SolveStatus::kUnsat, kNoModel);  // promote
    report(CacheLookup::kUnsatSubsumed);
    SolveResult r;
    r.status = SolveStatus::kUnsat;
    return r;
  }

  // 3. A cached assignment that satisfies the query proves SAT.
  {
    SolveResult r;
    if (reuse_model(query_, pc, input_domains, unknown_domains, r.model)) {
      stats_.models_reused++;
      stats_.insertions++;
      insert_exact(query_.key, SolveStatus::kSat,
                   store_canon_model(query_, r.model));  // promote
      report(CacheLookup::kModelReused);
      r.status = SolveStatus::kSat;
      return r;
    }
  }

  // 4. Fresh solve; decided results become facts worth recycling, budget
  // exhaustion does not.
  const SolveResult r =
      solve_path(pc, input_domains, unknown_domains, options);
  report(CacheLookup::kMiss);
  if (r.status != SolveStatus::kUnknown) insert_result(query_, r);
  return r;
}

void SolverCache::merge_from(const SolverCache& other) {
  // Exact entries in `other`'s slot order: stable and deterministic, so a
  // corpus-ordered sequence of merges always produces the same cache.
  for (const ExactSlot& slot : other.exact_) {
    if (slot.key == 0) continue;
    if (find_exact({slot.key, slot.check}) != nullptr) continue;
    std::uint32_t model_index = kNoModel;
    if (slot.status == SolveStatus::kSat && slot.model != kNoModel &&
        slot.model < other.canon_models_.size()) {
      canon_models_.push_back(other.canon_models_[slot.model]);
      model_index = static_cast<std::uint32_t>(canon_models_.size() - 1);
    }
    insert_exact({slot.key, slot.check}, slot.status, model_index);
  }
  for (const UnsatCore& core : other.unsat_cores_) {
    if (std::find(unsat_cores_.begin(), unsat_cores_.end(), core) !=
        unsat_cores_.end()) {
      continue;
    }
    if (unsat_cores_.size() >= config_.max_unsat_cores) {
      unsat_cores_.erase(unsat_cores_.begin());
    }
    unsat_cores_.push_back(core);
  }
  for (const Assignment& m : other.models_) {
    if (std::find(models_.begin(), models_.end(), m) != models_.end()) {
      continue;
    }
    if (models_.size() >= config_.max_models) models_.erase(models_.begin());
    models_.push_back(m);
  }
}

namespace {

void put_values(Bytes& out, const std::vector<Value>& vs) {
  put_varint(out, vs.size());
  for (const Value v : vs) put_varint_signed(out, v);
}

bool get_values(StateReader& r, std::vector<Value>& vs) {
  const std::uint64_t n = r.count();
  vs.clear();
  vs.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) vs.push_back(r.i64());
  return r.ok();
}

}  // namespace

void SolverCache::save_state(Bytes& out) const {
  encode_fields(out, config_);
  encode_fields(out, stats_);
  // Slot-for-slot dump of the occupied exact entries: reinserting by hash
  // would not reproduce wraparound probe sequences, so indices are explicit.
  put_varint(out, exact_.size());
  put_varint(out, exact_count_);
  for (std::size_t i = 0; i < exact_.size(); ++i) {
    const ExactSlot& slot = exact_[i];
    if (slot.key == 0) continue;
    put_varint(out, i);
    put_varint(out, slot.key);
    put_varint(out, slot.check);
    put_varint(out, static_cast<std::uint64_t>(slot.status));
    put_varint(out, slot.model);
  }
  put_varint(out, canon_models_.size());
  for (const CanonModel& cm : canon_models_) {
    put_values(out, cm.inputs);
    put_values(out, cm.unknowns);
  }
  put_varint(out, unsat_cores_.size());
  for (const UnsatCore& core : unsat_cores_) {
    put_varint(out, core.lits.size());
    for (const Hash128& h : core.lits) {
      put_varint(out, h.a);
      put_varint(out, h.b);
    }
    put_varint(out, core.vars.size());
    for (const VarBox& v : core.vars) {
      put_varint(out, v.kind);
      put_varint(out, v.index);
      put_varint_signed(out, v.lo);
      put_varint_signed(out, v.hi);
    }
  }
  put_varint(out, models_.size());
  for (const Assignment& m : models_) {
    put_values(out, m.inputs);
    put_values(out, m.unknowns);
  }
}

bool SolverCache::load_state(StateReader& r) {
  SolverCacheConfig cfg;
  decode_fields(r, cfg);
  if (!r.ok() || !(cfg == config_)) {
    r.fail();  // differently-configured cache: eviction semantics diverge
    return false;
  }
  decode_fields(r, stats_);

  const std::uint64_t table_size = r.u64();
  const std::uint64_t stored_count = r.u64();
  if (!r.ok() || table_size < 64 ||            // ctor floor, growth doubles
      (table_size & (table_size - 1)) != 0 ||  // power of two
      stored_count * 2 > table_size ||         // <= 50% load invariant
      stored_count > r.remaining() / 4) {
    r.fail();
    return false;
  }
  exact_.assign(table_size, ExactSlot{});
  exact_count_ = static_cast<std::size_t>(stored_count);

  // canon_models_ is decoded after the slots that reference it, so model
  // indices are range-checked in a second pass below.
  std::uint64_t max_model_ref = 0;
  std::uint64_t prev_index = 0;
  for (std::uint64_t i = 0; i < stored_count && r.ok(); ++i) {
    const std::uint64_t index = r.u64_max(table_size - 1);
    if (i > 0 && index <= prev_index) r.fail();  // strictly ascending
    prev_index = index;
    ExactSlot slot;
    slot.key = r.u64();
    slot.check = r.u64();
    // kUnknown (2) is never cached; only decided results are legal.
    slot.status = static_cast<SolveStatus>(r.u64_max(1));
    slot.model = r.u32();
    if (!r.ok() || slot.key == 0) {
      r.fail();
      return false;
    }
    if (slot.status == SolveStatus::kUnsat && slot.model != kNoModel) {
      r.fail();  // UNSAT entries carry no witness
      return false;
    }
    if (slot.model != kNoModel && slot.model + 1 > max_model_ref) {
      max_model_ref = slot.model + std::uint64_t{1};
    }
    exact_[index] = slot;
  }

  const std::uint64_t n_canon = r.count(2);
  if (r.ok() && max_model_ref > n_canon) {
    r.fail();  // a slot references a model that does not exist
    return false;
  }
  canon_models_.clear();
  canon_models_.reserve(n_canon);
  for (std::uint64_t i = 0; i < n_canon && r.ok(); ++i) {
    CanonModel cm;
    get_values(r, cm.inputs);
    get_values(r, cm.unknowns);
    canon_models_.push_back(std::move(cm));
  }

  unsat_cores_.clear();
  const std::uint64_t n_cores = r.count(2);
  if (n_cores > config_.max_unsat_cores) {
    r.fail();
    return false;
  }
  for (std::uint64_t i = 0; i < n_cores && r.ok(); ++i) {
    UnsatCore core;
    const std::uint64_t n_lits = r.count(2);
    core.lits.reserve(n_lits);
    Hash128 prev{};
    for (std::uint64_t l = 0; l < n_lits && r.ok(); ++l) {
      Hash128 h;
      h.a = r.u64();
      h.b = r.u64();
      if (l > 0 && h <= prev) r.fail();  // lits are sorted and deduped
      prev = h;
      // lit_mask is derived state; recompute rather than trust the wire.
      core.lit_mask |= 1ULL << (h.a & 63);
      core.lits.push_back(h);
    }
    const std::uint64_t n_vars = r.count(4);
    core.vars.reserve(n_vars);
    VarBox prev_var{};
    for (std::uint64_t v = 0; v < n_vars && r.ok(); ++v) {
      VarBox box;
      box.kind = static_cast<std::uint8_t>(r.u64_max(1));
      box.index = r.u32();
      box.lo = r.i64();
      box.hi = r.i64();
      if (v > 0 && box <= prev_var) r.fail();  // sorted by (kind, index)
      if (box.lo > box.hi) r.fail();
      prev_var = box;
      core.vars.push_back(box);
    }
    unsat_cores_.push_back(std::move(core));
  }

  models_.clear();
  const std::uint64_t n_models = r.count(2);
  if (n_models > config_.max_models) {
    r.fail();
    return false;
  }
  for (std::uint64_t i = 0; i < n_models && r.ok(); ++i) {
    Assignment m;
    get_values(r, m.inputs);
    get_values(r, m.unknowns);
    models_.push_back(std::move(m));
  }
  return r.ok();
}

bool SolverCache::state_equals(const SolverCache& other) const {
  return config_.max_entries == other.config_.max_entries &&
         config_.max_unsat_cores == other.config_.max_unsat_cores &&
         config_.max_models == other.config_.max_models &&
         config_.model_probe_limit == other.config_.model_probe_limit &&
         stats_.lookups == other.stats_.lookups &&
         stats_.exact_hits == other.stats_.exact_hits &&
         stats_.unsat_subsumed == other.stats_.unsat_subsumed &&
         stats_.models_reused == other.stats_.models_reused &&
         stats_.insertions == other.stats_.insertions &&
         stats_.resets == other.stats_.resets &&
         exact_count_ == other.exact_count_ && exact_ == other.exact_ &&
         canon_models_ == other.canon_models_ &&
         unsat_cores_ == other.unsat_cores_ && models_ == other.models_;
}

}  // namespace softborg
