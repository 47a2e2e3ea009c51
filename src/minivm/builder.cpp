#include "minivm/builder.h"

#include "common/check.h"
#include "common/log.h"

namespace softborg {

ProgramBuilder::ProgramBuilder(std::string name, std::uint64_t id)
    : name_(std::move(name)), id_(id) {}

Reg ProgramBuilder::reg() {
  SB_CHECK(num_regs_ < 0xffff);
  return num_regs_++;
}

std::uint32_t ProgramBuilder::global() {
  SB_CHECK(num_globals_ < 0xffff);
  return num_globals_++;
}

std::uint32_t ProgramBuilder::lock() {
  SB_CHECK(num_locks_ < 0xffff);
  return num_locks_++;
}

std::uint32_t ProgramBuilder::input_slot() {
  SB_CHECK(num_inputs_ < 0xffff);
  return num_inputs_++;
}

ProgramBuilder::Label ProgramBuilder::label() {
  label_pc_.push_back(kUnbound);
  return static_cast<Label>(label_pc_.size() - 1);
}

void ProgramBuilder::bind(Label l) {
  SB_CHECK(l < label_pc_.size());
  SB_CHECK(label_pc_[l] == kUnbound);
  label_pc_[l] = current_pc();
}

ProgramBuilder::Label ProgramBuilder::here() {
  Label l = label();
  bind(l);
  return l;
}

void ProgramBuilder::emit(Instr ins) { code_.push_back(ins); }

void ProgramBuilder::const_(Reg r, Value v) {
  emit({.op = Op::kConst, .a = r, .imm = v});
}
void ProgramBuilder::mov(Reg dst, Reg src) {
  emit({.op = Op::kMov, .a = dst, .b = src});
}
void ProgramBuilder::add(Reg d, Reg a, Reg b) {
  emit({.op = Op::kAdd, .a = d, .b = a, .c = b});
}
void ProgramBuilder::sub(Reg d, Reg a, Reg b) {
  emit({.op = Op::kSub, .a = d, .b = a, .c = b});
}
void ProgramBuilder::mul(Reg d, Reg a, Reg b) {
  emit({.op = Op::kMul, .a = d, .b = a, .c = b});
}
void ProgramBuilder::div(Reg d, Reg a, Reg b) {
  emit({.op = Op::kDiv, .a = d, .b = a, .c = b});
}
void ProgramBuilder::mod(Reg d, Reg a, Reg b) {
  emit({.op = Op::kMod, .a = d, .b = a, .c = b});
}
void ProgramBuilder::cmp_lt(Reg d, Reg a, Reg b) {
  emit({.op = Op::kCmpLt, .a = d, .b = a, .c = b});
}
void ProgramBuilder::cmp_le(Reg d, Reg a, Reg b) {
  emit({.op = Op::kCmpLe, .a = d, .b = a, .c = b});
}
void ProgramBuilder::cmp_eq(Reg d, Reg a, Reg b) {
  emit({.op = Op::kCmpEq, .a = d, .b = a, .c = b});
}
void ProgramBuilder::cmp_ne(Reg d, Reg a, Reg b) {
  emit({.op = Op::kCmpNe, .a = d, .b = a, .c = b});
}

void ProgramBuilder::branch_if(Reg cond, Label then_l, Label else_l) {
  fixups_.push_back({current_pc(), 1, then_l});
  fixups_.push_back({current_pc(), 2, else_l});
  emit({.op = Op::kBranchIf, .a = cond});
}

void ProgramBuilder::jump(Label l) {
  fixups_.push_back({current_pc(), 0, l});
  emit({.op = Op::kJump});
}

void ProgramBuilder::input(Reg r, std::uint32_t slot) {
  emit({.op = Op::kInput, .a = r, .b = slot});
}
void ProgramBuilder::syscall(Reg r, std::uint16_t sys_id, Reg arg) {
  emit({.op = Op::kSyscall, .a = r, .b = sys_id, .c = arg});
}
void ProgramBuilder::loadg(Reg r, std::uint32_t g) {
  emit({.op = Op::kLoadG, .a = r, .b = g});
}
void ProgramBuilder::storeg(std::uint32_t g, Reg r) {
  emit({.op = Op::kStoreG, .a = g, .b = r});
}
void ProgramBuilder::lock_acq(std::uint32_t l) {
  emit({.op = Op::kLock, .a = l});
}
void ProgramBuilder::lock_rel(std::uint32_t l) {
  emit({.op = Op::kUnlock, .a = l});
}
void ProgramBuilder::assert_true(Reg r, std::int64_t msg_id) {
  emit({.op = Op::kAssert,
        .a = r,
        .b = static_cast<std::uint32_t>(msg_id & 0xffffffff)});
}
void ProgramBuilder::abort_now(std::int64_t code) {
  emit({.op = Op::kAbort,
        .a = static_cast<std::uint32_t>(code & 0xffffffff)});
}
void ProgramBuilder::output(Reg r) { emit({.op = Op::kOutput, .a = r}); }
void ProgramBuilder::yield() { emit({.op = Op::kYield}); }
void ProgramBuilder::halt() { emit({.op = Op::kHalt}); }

void ProgramBuilder::start_thread() { thread_entries_.push_back(current_pc()); }

Reg ProgramBuilder::scratch() {
  if (!have_scratch_) {
    scratch_ = reg();
    have_scratch_ = true;
  }
  return scratch_;
}

void ProgramBuilder::add_const(Reg d, Reg a, Value v) {
  Reg s = scratch();
  const_(s, v);
  add(d, a, s);
}
void ProgramBuilder::cmp_lt_const(Reg d, Reg a, Value v) {
  Reg s = scratch();
  const_(s, v);
  cmp_lt(d, a, s);
}
void ProgramBuilder::cmp_eq_const(Reg d, Reg a, Value v) {
  Reg s = scratch();
  const_(s, v);
  cmp_eq(d, a, s);
}

Program ProgramBuilder::build() {
  Program p;
  p.id = ProgramId(id_);
  p.name = name_;
  p.code = code_;
  p.thread_entries = thread_entries_;
  p.num_regs = num_regs_;
  p.num_globals = num_globals_;
  p.num_locks = num_locks_;
  p.num_inputs = num_inputs_;

  for (const auto& fix : fixups_) {
    SB_CHECK(fix.label < label_pc_.size());
    const std::uint32_t target = label_pc_[fix.label];
    SB_CHECK(target != kUnbound);
    Instr& ins = p.code[fix.pc];
    switch (fix.operand) {
      case 0:
        ins.a = target;
        break;
      case 1:
        ins.b = target;
        break;
      default:
        ins.c = target;
        break;
    }
  }

  std::uint32_t next_site = 0;
  for (auto& ins : p.code) {
    if (op_info(ins.op).site) ins.site = next_site++;
  }
  p.num_branch_sites = next_site;

  std::string error;
  if (!p.validate(&error)) {
    SB_LOG_ERROR("program '%s' failed validation: %s", p.name.c_str(),
                 error.c_str());
    SB_CHECK(false);
  }
  return p;
}

}  // namespace softborg
