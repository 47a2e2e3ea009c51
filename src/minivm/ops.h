// The MiniVM opcode table: every per-opcode fact, declared once.
//
// SB_MINIVM_OPS has one row per opcode: its enumerator (Op values follow
// the row order, and Tok's base tokens mirror them), its mnemonic, what its
// a, b and c operands hold, whether it owns a decision site, and its
// disassembly layout. SB_MINIVM_SUPERS has one row per superinstruction
// (decode.h): its token, the opcodes of its two halves, and its name.
// SB_MINIVM_BINARY_ALU has one row per binary ALU opcode: its symbolic
// BinOp and its value on defined operands.
//
// Everything per-opcode reads these rows: Program::validate's operand and
// site checks, predecode's fusion pass, the disassembler, the interpreter's
// dispatch table and ALU handlers, and the symbolic executor's expressions.
// Keep every enumerator's value: the decode-cache key hashes them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace softborg {

using Value = std::int64_t;

// Semantics: ALU ops set regs[a] from regs[b] and regs[c] (const from imm,
// mov from regs[b]); div and mod crash on a zero divisor. brif goes to b if
// regs[a] != 0, else to c; jump goes to a. input reads inputs[b] and
// syscall the environment's answer to sys b with argument regs[c], both
// into regs[a] and both tainted. loadg/storeg move between regs and
// globals; lock/unlock acquire and release lock a. assert crashes when
// regs[a] == 0 (message b); abort crashes (code a). output appends regs[a]
// to the run's outputs; yield ends the thread's quantum; halt ends the
// thread. Decision sites are the branches and the data-dependent crash
// checks (div, mod, assert).
//
// Disassembly layouts: a leading "%" stands for the mnemonic, $a $b $c
// $i $s for the operands, the immediate and the site. The first word is
// padded to five columns when operands follow.
//
// X(enumerator, mnemonic, a, b, c, owns a decision site, layout)
#define SB_MINIVM_OPS(X)                                                   \
  X(kConst, "const", kDst, kNone, kNone, false, "% r$a = $i")              \
  X(kMov, "mov", kDst, kSrc, kNone, false, "% r$a = r$b")                  \
  X(kAdd, "add", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")              \
  X(kSub, "sub", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")              \
  X(kMul, "mul", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")              \
  X(kDiv, "div", kDst, kSrc, kSrc, true, "% r$a = r$b, r$c")               \
  X(kMod, "mod", kDst, kSrc, kSrc, true, "% r$a = r$b, r$c")               \
  X(kCmpLt, "cmplt", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")          \
  X(kCmpLe, "cmple", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")          \
  X(kCmpEq, "cmpeq", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")          \
  X(kCmpNe, "cmpne", kDst, kSrc, kSrc, false, "% r$a = r$b, r$c")          \
  X(kBranchIf, "brif", kSrc, kTarget, kTarget, true,                       \
    "% r$a ? ->$b : ->$c   (site $s)")                                     \
  X(kJump, "jump", kTarget, kNone, kNone, false, "% ->$a")                 \
  X(kInput, "input", kDst, kSlot, kNone, false, "% r$a = in[$b]")          \
  X(kSyscall, "syscall", kDst, kSysId, kSrc, false, "sys r$a = sys$b(r$c)") \
  X(kLoadG, "loadg", kDst, kGlobal, kNone, false, "% r$a = g[$b]")         \
  X(kStoreG, "storeg", kGlobal, kSrc, kNone, false, "storg g[$a] = r$b")   \
  X(kLock, "lock", kLock, kNone, kNone, false, "% L$a")                    \
  X(kUnlock, "unlock", kLock, kNone, kNone, false, "unlck L$a")            \
  X(kAssert, "assert", kSrc, kNone, kNone, true, "asert r$a (msg $b)")     \
  X(kAbort, "abort", kNone, kNone, kNone, false, "% ($a)")                 \
  X(kOutput, "output", kSrc, kNone, kNone, false, "out r$a")               \
  X(kYield, "yield", kNone, kNone, kNone, false, "%")                      \
  X(kHalt, "halt", kNone, kNone, kNone, false, "%")

// Superinstructions: const feeding a non-trapping ALU op, a compare whose
// result is immediately branched on, and a register shuffle feeding a
// global store. X(token, first op, second op, name)
#define SB_MINIVM_SUPERS(X)                            \
  X(kConstAdd, kConst, kAdd, "const+add")              \
  X(kConstSub, kConst, kSub, "const+sub")              \
  X(kConstMul, kConst, kMul, "const+mul")              \
  X(kConstCmpLt, kConst, kCmpLt, "const+cmplt")        \
  X(kConstCmpLe, kConst, kCmpLe, "const+cmple")        \
  X(kConstCmpEq, kConst, kCmpEq, "const+cmpeq")        \
  X(kConstCmpNe, kConst, kCmpNe, "const+cmpne")        \
  X(kCmpLtBranch, kCmpLt, kBranchIf, "cmplt+brif")     \
  X(kCmpLeBranch, kCmpLe, kBranchIf, "cmple+brif")     \
  X(kCmpEqBranch, kCmpEq, kBranchIf, "cmpeq+brif")     \
  X(kCmpNeBranch, kCmpNe, kBranchIf, "cmpne+brif")     \
  X(kMovStoreG, kMov, kStoreG, "mov+storeg")

// Binary ALU opcodes, X(opcode, BinOp, value of x and y). MiniVM integers
// are two's-complement 64-bit with defined wraparound, and INT64_MIN / -1
// (which overflows in C++) is INT64_MIN, with remainder 0. Compares yield
// 0 or 1. The ones that cannot trap:
#define SB_MINIVM_PLAIN_ALU(X)                    \
  X(kAdd, kAdd, wrap(bits(x) + bits(y)))          \
  X(kSub, kSub, wrap(bits(x) - bits(y)))          \
  X(kMul, kMul, wrap(bits(x) * bits(y)))          \
  X(kCmpLt, kLt, x < y)                           \
  X(kCmpLe, kLe, x <= y)                          \
  X(kCmpEq, kEq, x == y)                          \
  X(kCmpNe, kNe, x != y)
// and the two that crash on a zero divisor, which is a decision of the
// execution tree (interp.cpp), never a value:
#define SB_MINIVM_DIVISION(X)                                    \
  X(kDiv, kDiv, (x == INT64_MIN && y == -1) ? INT64_MIN : x / y) \
  X(kMod, kMod, (x == INT64_MIN && y == -1) ? 0 : x % y)
#define SB_MINIVM_BINARY_ALU(X) SB_MINIVM_PLAIN_ALU(X) SB_MINIVM_DIVISION(X)

#define SB_MINIVM_ENUMERATOR(NAME, ...) NAME,

enum class Op : std::uint8_t { SB_MINIVM_OPS(SB_MINIVM_ENUMERATOR) };

// Handler tokens: one per Op (same values), then one per superinstruction.
enum class Tok : std::uint8_t {
  SB_MINIVM_OPS(SB_MINIVM_ENUMERATOR) SB_MINIVM_SUPERS(SB_MINIVM_ENUMERATOR)
};

// The symbolic executor's binary operators (sym/expr.h), one per binary
// ALU opcode and in the same order.
enum class BinOp : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,  // only constructed under a divisor!=0 path constraint
  kMod,
  kLt,
  kLe,
  kEq,
  kNe,
};

#undef SB_MINIVM_ENUMERATOR

#define SB_MINIVM_COUNT(...) +1
// Number of opcodes; Op values are dense in [0, kNumOps).
inline constexpr std::size_t kNumOps = 0 SB_MINIVM_OPS(SB_MINIVM_COUNT);
inline constexpr std::size_t kNumToks =
    kNumOps + 0 SB_MINIVM_SUPERS(SB_MINIVM_COUNT);
#undef SB_MINIVM_COUNT

// What an instruction operand holds. Program::validate checks registers,
// targets, globals, locks and input slots against the program's bounds; a
// syscall id and kNone (unused, an assert message, an abort code) take any
// value.
enum class Operand : std::uint8_t {
  kNone,
  kDst,     // register written
  kSrc,     // register read
  kTarget,  // pc
  kGlobal,
  kLock,
  kSlot,    // input slot
  kSysId,
};
inline constexpr std::size_t kNumOperandKinds =
    static_cast<std::size_t>(Operand::kSysId) + 1;

struct OpInfo {
  const char* name;
  Operand operand[3];  // a, b, c
  bool site;           // owns a decision site (Instr::site)
  const char* layout;
};

inline constexpr OpInfo kOpInfo[] = {
#define SB_MINIVM_INFO(NAME, MNEMONIC, A, B, C, SITE, LAYOUT) \
  {MNEMONIC, {Operand::A, Operand::B, Operand::C}, SITE, LAYOUT},
    SB_MINIVM_OPS(SB_MINIVM_INFO)
#undef SB_MINIVM_INFO
};

// `op` must be one of the table's opcodes.
constexpr const OpInfo& op_info(Op op) {
  return kOpInfo[static_cast<std::size_t>(op)];
}
constexpr const char* op_name(Op op) { return op_info(op).name; }

struct SuperInfo {
  Tok tok;
  Op first;
  Op second;
  const char* name;
};

inline constexpr SuperInfo kSuperInfo[] = {
#define SB_MINIVM_SUPER_INFO(TOK, FIRST, SECOND, NAME) \
  {Tok::TOK, Op::FIRST, Op::SECOND, NAME},
    SB_MINIVM_SUPERS(SB_MINIVM_SUPER_INFO)
#undef SB_MINIVM_SUPER_INFO
};

// The superinstruction fusing `first` with `second`, or nullptr.
constexpr const SuperInfo* super_pair(Op first, Op second) {
  for (const SuperInfo& s : kSuperInfo) {
    if (s.first == first && s.second == second) return &s;
  }
  return nullptr;
}

constexpr const char* tok_name(Tok tok) {
  const auto i = static_cast<std::size_t>(tok);
  return i < kNumOps ? op_name(static_cast<Op>(i))
                     : kSuperInfo[i - kNumOps].name;
}

namespace ops_detail {
constexpr std::uint64_t bits(Value v) { return static_cast<std::uint64_t>(v); }
constexpr Value wrap(std::uint64_t v) { return static_cast<Value>(v); }
}  // namespace ops_detail

// The value of `op` on x and y (y != 0 for kDiv and kMod).
constexpr Value binop_value(BinOp op, Value x, Value y) {
  using ops_detail::bits;
  using ops_detail::wrap;
  switch (op) {
#define SB_MINIVM_VALUE(OP, BIN, VALUE) \
  case BinOp::BIN:                      \
    return (VALUE);
    SB_MINIVM_BINARY_ALU(SB_MINIVM_VALUE)
#undef SB_MINIVM_VALUE
  }
  return 0;
}

// The BinOp of a binary ALU opcode; `op` must be one.
constexpr BinOp binop_of(Op op) {
  switch (op) {
#define SB_MINIVM_BINOP(OP, BIN, VALUE) \
  case Op::OP:                          \
    return BinOp::BIN;
    SB_MINIVM_BINARY_ALU(SB_MINIVM_BINOP)
#undef SB_MINIVM_BINOP
    default:
      break;
  }
  return BinOp::kNe;
}

}  // namespace softborg
