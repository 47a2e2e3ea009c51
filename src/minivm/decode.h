// Predecode: compile a Program (plus the pod's installed FixSet) into a
// dense decoded stream the dispatch core executes directly.
//
// The interpreter's hot loop used to pay, per instruction: a bounds-checked
// Program::at, a nested switch for ALU ops, and an O(#guards) linear scan
// for crash-guard fixes. Predecode moves all of that to program-load time:
// each pc gets a 64-byte DecodedInstr holding the resolved handler token,
// the pre-unpacked operands, and the pre-resolved fix hooks (crash guard,
// branch GuardPatch candidates, lock-avoidance candidates) for that pc.
//
// On top of the 1:1 decoded stream a peephole pass fuses hot fallthrough
// opcode pairs into superinstructions (const+ALU, cmp+branch, mov+storeg).
// A fused slot overlays the *first* pc of the pair; the second pc keeps its
// own plain decode, so branches into the middle of a pair keep working and
// pc values stay original-program pcs throughout. Fused execution debits
// step budgets once per original instruction (interp.cpp), so traces are
// byte-identical with fusion on or off.
//
// Predecode is also where a Program is validated: every stream, cached or
// not, was built from a program that passed Program::validate(), so running
// a stream never re-checks the program.
//
// Decoded programs are cached per (Program, FixSet, fuse) content hash so
// repeated replays of the same program/fix configuration — the fleet's
// common case — skip decode entirely. A caller that runs one (program, fix
// set) many times holds the shared stream and passes it to
// execute(program, decoded, config) (interp.h), which skips even the cache
// lookup.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "minivm/fixes.h"
#include "minivm/program.h"

namespace softborg {

inline constexpr std::uint32_t kNoFix = 0xffffffffu;

// One decoded slot: exactly one cache line. Primary operands (a, b, c, imm,
// site) are the first instruction of the slot; a2/b2/c2/site2 are the fused
// second instruction's, valid iff len == 2.
struct alignas(64) DecodedInstr {
  Tok tok = Tok::kHalt;   // handler to dispatch
  Tok base = Tok::kHalt;  // unfused token of the first instruction: executed
                          // instead when < len steps of budget remain
  std::uint8_t len = 1;   // original instructions this slot covers (1 or 2)
  std::uint8_t pad0 = 0;
  std::uint16_t fix_count = 0;  // GuardPatch / LockAvoidanceFix candidates
  std::uint16_t pad1 = 0;
  Value imm = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t site = 0;
  std::uint32_t a2 = 0;
  std::uint32_t b2 = 0;
  std::uint32_t c2 = 0;
  std::uint32_t site2 = 0;
  std::uint32_t guard = kNoFix;  // guard_pool index (kDiv/kMod/kAssert/kAbort)
  std::uint32_t fix_begin = 0;   // patch_pool (kBranchIf) / lockfix_pool (kLock)
};

static_assert(sizeof(DecodedInstr) == 64);

struct DecodeOptions {
  bool fuse = true;
};

// Self-contained decoded form: fix hooks are *copies* grouped per pc, so a
// cached DecodedProgram never dangles into a caller's FixSet.
struct DecodedProgram {
  std::vector<DecodedInstr> code;  // one slot per original pc
  std::vector<CrashGuardFix> guard_pool;
  std::vector<GuardPatch> patch_pool;
  std::vector<LockAvoidanceFix> lockfix_pool;
  std::uint32_t fused_slots = 0;  // static count of len==2 slots
  bool fused = false;             // decoded with fusion enabled
  // Layout of the source program, validated with it. The machine sizes its
  // threads, registers, globals and locks from these, never from the
  // Program a held stream is run against.
  std::vector<std::uint32_t> thread_entries;
  std::uint16_t num_regs = 0;
  std::uint16_t num_globals = 0;
  std::uint16_t num_locks = 0;

  // Sizes only, never a content comparison or a rehash: enough to catch a
  // stream run against another program.
  bool same_shape(const Program& p) const {
    return code.size() == p.code.size() &&
           thread_entries.size() == p.thread_entries.size() &&
           num_regs == p.num_regs && num_globals == p.num_globals &&
           num_locks == p.num_locks;
  }
};

// Validates `p` (SB_CHECK: Program::validate() and at most 256 threads), then
// decodes it with `fixes` (nullptr == empty FixSet) resolved into the stream.
// Deterministic in its inputs.
DecodedProgram predecode(const Program& p, const FixSet* fixes,
                         const DecodeOptions& options = {});

// Cached predecode, keyed by a 128-bit dual-pass content hash over the
// program, the fixes, and the fuse flag (pointer identity is deliberately
// not part of the key: equal content shares one entry, mutated content
// misses). The key covers every Program field validate() reads, so a hit
// is a program that was validated when its entry was decoded.
// Thread-safe; generational eviction when the cache fills. Each call is one
// lookup (one hit or one miss in predecode_cache_stats()).
std::shared_ptr<const DecodedProgram> predecode_cached(
    const Program& p, const FixSet* fixes, const DecodeOptions& options = {});

struct PredecodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};

PredecodeCacheStats predecode_cache_stats();
void clear_predecode_cache();

// Dynamic opcode-pair frequency counters: how often instruction `second`
// executed as the fallthrough successor (pc + 1, same thread) of `first`.
// This is exactly the population a fusion candidate draws from, so the dump
// (disasm.h: format_pair_counts) is the data that justifies the fusion
// table. Fill via ExecConfig::pair_counts (interp.h), which runs the
// unfused stream so raw pairs are observable.
struct OpPairCounts {
  std::array<std::uint64_t, kNumOps * kNumOps> counts{};

  void add(Op first, Op second) {
    counts[static_cast<std::size_t>(first) * kNumOps +
           static_cast<std::size_t>(second)]++;
  }
  std::uint64_t at(Op first, Op second) const {
    return counts[static_cast<std::size_t>(first) * kNumOps +
                  static_cast<std::size_t>(second)];
  }
  void merge(const OpPairCounts& other) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
  }

  struct Pair {
    Op first = Op::kHalt;
    Op second = Op::kHalt;
    std::uint64_t count = 0;
  };
  // Non-zero pairs, most frequent first (ties broken by opcode order).
  std::vector<Pair> sorted() const;
};

}  // namespace softborg
