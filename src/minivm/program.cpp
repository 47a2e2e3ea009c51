#include "minivm/program.h"

#include <iterator>
#include <unordered_set>

namespace softborg {

bool Program::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  if (code.empty()) return fail("empty code");
  if (thread_entries.empty()) return fail("no thread entries");
  for (auto entry : thread_entries) {
    if (entry >= code.size()) return fail("thread entry out of range");
  }

  const std::uint32_t n = static_cast<std::uint32_t>(code.size());
  // The exclusive bound on an operand of each kind, in Operand order;
  // unchecked kinds take any 32-bit value.
  constexpr std::uint64_t kAny = std::uint64_t{1} << 32;
  const std::uint64_t bound[] = {kAny,        num_regs,  num_regs,   n,
                                 num_globals, num_locks, num_inputs, kAny};
  static_assert(std::size(bound) == kNumOperandKinds);
  std::unordered_set<std::uint32_t> sites_seen;

  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const Instr& ins = code[pc];
    if (static_cast<std::size_t>(ins.op) >= kNumOps) return fail("bad opcode");
    const OpInfo& info = op_info(ins.op);
    const std::uint32_t operands[] = {ins.a, ins.b, ins.c};
    for (int k = 0; k < 3; ++k) {
      if (operands[k] >= bound[static_cast<std::size_t>(info.operand[k])]) {
        return fail(std::string(info.name) + ": operand " + "abc"[k] +
                    " out of range");
      }
    }
    if (!info.site) continue;
    if (ins.site >= num_branch_sites) {
      return fail(std::string(info.name) + ": bad site id");
    }
    if (!sites_seen.insert(ins.site).second) {
      return fail(std::string(info.name) + ": duplicate site id");
    }
  }

  if (sites_seen.size() != num_branch_sites) {
    return fail("branch site ids not dense");
  }
  return true;
}

}  // namespace softborg
