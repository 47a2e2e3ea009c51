#include "minivm/decode.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "obs/span.h"
#include "trace/trace.h"

namespace softborg {

namespace {

// Superinstruction selection for the pair starting at `pc`, or Tok::kHalt
// ("no fusion"). The opcode table (ops.h) names the pairs the dispatch core
// has a handler for; their first halves all fall through unconditionally.
// Two conditions depend on the program around the pair.
Tok fuse_token(const Program& p, std::uint32_t pc) {
  if (pc + 1 >= p.code.size()) return Tok::kHalt;
  const Instr& i1 = p.code[pc];
  const Instr& i2 = p.code[pc + 1];
  const SuperInfo* pair = super_pair(i1.op, i2.op);
  if (pair == nullptr) return Tok::kHalt;
  // The branch must test the freshly computed compare result.
  if (i2.op == Op::kBranchIf) return i2.a == i1.a ? pair->tok : Tok::kHalt;
  // Prefer the more profitable cmp+branch fusion one slot later: leave a
  // const plain when its ALU op is a cmp that would itself fuse with a
  // following branch (both splits cost two dispatches, but the cmp+branch
  // handler also skips the flag-register round trip).
  if (pc + 2 < p.code.size()) {
    const Instr& i3 = p.code[pc + 2];
    if (i3.op == Op::kBranchIf && i3.a == i2.a &&
        super_pair(i2.op, Op::kBranchIf) != nullptr) {
      return Tok::kHalt;
    }
  }
  return pair->tok;
}

}  // namespace

DecodedProgram predecode(const Program& p, const FixSet* fixes,
                         const DecodeOptions& options) {
  SB_SPAN("minivm.predecode");
  // The one place programs are validated: execute() runs only streams
  // built here, and the cache key covers every field validate() reads.
  SB_CHECK(p.validate());
  SB_CHECK(p.num_threads() <= 256);
  DecodedProgram d;
  d.fused = options.fuse;
  d.thread_entries = p.thread_entries;
  d.num_regs = p.num_regs;
  d.num_globals = p.num_globals;
  d.num_locks = p.num_locks;
  const std::size_t n = p.code.size();
  d.code.resize(n);

  // Pass 1: plain 1:1 decode with fix hooks resolved per pc.
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const Instr& ins = p.code[pc];
    DecodedInstr& e = d.code[pc];
    e.tok = e.base = static_cast<Tok>(ins.op);
    e.len = 1;
    e.a = ins.a;
    e.b = ins.b;
    e.c = ins.c;
    e.imm = ins.imm;
    e.site = ins.site;
    if (fixes == nullptr) continue;
    switch (ins.op) {
      case Op::kDiv:
      case Op::kMod:
      case Op::kAssert:
      case Op::kAbort:
        // First guard at this pc wins, like the interpreter's old
        // crash_guard_at scan.
        for (const auto& g : fixes->crash_guards) {
          if (g.pc == pc) {
            e.guard = static_cast<std::uint32_t>(d.guard_pool.size());
            d.guard_pool.push_back(g);
            break;
          }
        }
        break;
      case Op::kBranchIf:
        e.fix_begin = static_cast<std::uint32_t>(d.patch_pool.size());
        for (const auto& patch : fixes->guards) {
          if (patch.site == ins.site) d.patch_pool.push_back(patch);
        }
        e.fix_count = static_cast<std::uint16_t>(d.patch_pool.size() -
                                                 e.fix_begin);
        break;
      case Op::kLock:
        e.fix_begin = static_cast<std::uint32_t>(d.lockfix_pool.size());
        for (const auto& fix : fixes->lock_fixes) {
          if (fix.covers(static_cast<std::uint16_t>(ins.a))) {
            d.lockfix_pool.push_back(fix);
          }
        }
        e.fix_count = static_cast<std::uint16_t>(d.lockfix_pool.size() -
                                                 e.fix_begin);
        break;
      default:
        break;
    }
  }

  // Pass 2: peephole fusion. A fused slot overlays the pair's first pc; the
  // second pc keeps its plain decode so jumps into the middle still land on
  // a valid slot.
  if (options.fuse) {
    for (std::uint32_t pc = 0; pc + 1 < n; ++pc) {
      const Tok fused = fuse_token(p, pc);
      if (fused == Tok::kHalt) continue;
      const Instr& i2 = p.code[pc + 1];
      DecodedInstr& e = d.code[pc];
      e.tok = fused;
      e.len = 2;
      e.a2 = i2.a;
      e.b2 = i2.b;
      e.c2 = i2.c;
      e.site2 = i2.site;
      // A fused cmp+branch inherits the branch's resolved GuardPatch range
      // (the cmp half has no hooks of its own, so the slot's fields are
      // free). const+ALU and mov+storeg pairs have no hooks on either half.
      e.fix_begin = d.code[pc + 1].fix_begin;
      e.fix_count = d.code[pc + 1].fix_count;
      d.fused_slots++;
    }
  }
  return d;
}

namespace {

// 128-bit dual-pass content hash over (program, fixes, fuse): the decode
// cache key. Everything the decoded stream depends on is folded in, and so
// is every field Program::validate() reads, each at full width: a hit
// means the program equals one predecode() already validated. id/name
// metadata is excluded so equal-content programs share an entry.
struct DecodeKey {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
};

DecodeKey decode_key(const Program& p, const FixSet* fixes, bool fuse) {
  DecodeKey k{0x5b0f7b0de51a11edULL, 0xc0dec0dec0dec0deULL};
  auto mix = [&k](std::uint64_t v) {
    k.h1 = replay_mix(k.h1, v);
    k.h2 = replay_mix(k.h2, v ^ 0x9e3779b97f4a7c15ULL);
  };
  mix(p.code.size());
  for (const Instr& ins : p.code) {
    mix(static_cast<std::uint64_t>(ins.op) |
        (static_cast<std::uint64_t>(ins.site) << 8));
    mix(static_cast<std::uint64_t>(ins.a) |
        (static_cast<std::uint64_t>(ins.b) << 32));
    mix(static_cast<std::uint64_t>(ins.c));
    mix(static_cast<std::uint64_t>(ins.imm));
  }
  mix(p.thread_entries.size());
  for (auto e : p.thread_entries) mix(e);
  mix(static_cast<std::uint64_t>(p.num_regs) |
      (static_cast<std::uint64_t>(p.num_globals) << 16) |
      (static_cast<std::uint64_t>(p.num_locks) << 32) |
      (static_cast<std::uint64_t>(p.num_inputs) << 48));
  mix(p.num_branch_sites);
  if (fixes != nullptr) {
    mix(fixes->guards.size());
    for (const auto& g : fixes->guards) {
      mix(static_cast<std::uint64_t>(g.site) |
          (static_cast<std::uint64_t>(g.crash_direction) << 32));
      mix(g.when.size());
      for (const auto& b : g.when) {
        mix(b.input);
        mix(static_cast<std::uint64_t>(b.lo));
        mix(static_cast<std::uint64_t>(b.hi));
      }
    }
    mix(fixes->crash_guards.size());
    for (const auto& g : fixes->crash_guards) {
      mix(static_cast<std::uint64_t>(g.pc) |
          (static_cast<std::uint64_t>(g.action) << 32));
      mix(static_cast<std::uint64_t>(g.fallback));
    }
    mix(fixes->lock_fixes.size());
    for (const auto& f : fixes->lock_fixes) {
      mix(f.cycle_locks.size());
      for (auto l : f.cycle_locks) mix(l);
    }
  } else {
    // Same key shape as an empty FixSet: both decode to the same stream.
    mix(0);
    mix(0);
    mix(0);
  }
  mix(fuse ? 1 : 0);
  return k;
}

struct DecodeCache {
  std::mutex mu;
  struct Entry {
    std::uint64_t h2 = 0;
    std::shared_ptr<const DecodedProgram> prog;
  };
  std::unordered_map<std::uint64_t, Entry> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

DecodeCache& decode_cache() {
  static DecodeCache c;
  return c;
}

// Generational eviction bound: far above the live program count of any
// fleet run, small enough that a long random-program fuzz cannot grow the
// cache without limit.
constexpr std::size_t kMaxCacheEntries = 1024;

}  // namespace

std::shared_ptr<const DecodedProgram> predecode_cached(
    const Program& p, const FixSet* fixes, const DecodeOptions& options) {
  const DecodeKey key = decode_key(p, fixes, options.fuse);
  DecodeCache& cache = decode_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.map.find(key.h1);
    if (it != cache.map.end() && it->second.h2 == key.h2) {
      cache.hits++;
      return it->second.prog;
    }
  }
  auto decoded =
      std::make_shared<const DecodedProgram>(predecode(p, fixes, options));
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.misses++;
    if (cache.map.size() >= kMaxCacheEntries) cache.map.clear();
    cache.map[key.h1] = {key.h2, decoded};
  }
  return decoded;
}

PredecodeCacheStats predecode_cache_stats() {
  DecodeCache& cache = decode_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return {cache.hits, cache.misses, cache.map.size()};
}

void clear_predecode_cache() {
  DecodeCache& cache = decode_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.map.clear();
  cache.hits = 0;
  cache.misses = 0;
}

std::vector<OpPairCounts::Pair> OpPairCounts::sorted() const {
  std::vector<Pair> out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    out.push_back({static_cast<Op>(i / kNumOps), static_cast<Op>(i % kNumOps),
                   counts[i]});
  }
  std::sort(out.begin(), out.end(), [](const Pair& a, const Pair& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  return out;
}

}  // namespace softborg
