#include "minivm/disasm.h"

#include <algorithm>
#include <cstdio>

namespace softborg {

std::string instr_text(const Instr& ins) {
  const std::string layout = op_info(ins.op).layout;
  const std::size_t space = layout.find(' ');
  std::string out =
      layout[0] == '%' ? op_name(ins.op) : layout.substr(0, space);
  if (space == std::string::npos) return out;
  out.resize(std::max<std::size_t>(out.size(), 5), ' ');
  for (std::size_t i = space; i < layout.size(); ++i) {
    if (layout[i] != '$') {
      out += layout[i];
      continue;
    }
    switch (layout[++i]) {
      case 'a': out += std::to_string(ins.a); break;
      case 'b': out += std::to_string(ins.b); break;
      case 'c': out += std::to_string(ins.c); break;
      case 'i': out += std::to_string(ins.imm); break;
      default: out += std::to_string(ins.site); break;
    }
  }
  return out;
}

std::string disassemble_instr(const Instr& ins, std::uint32_t pc) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%4u: %s", pc, instr_text(ins).c_str());
  return buf;
}

std::string disassemble(const Program& p) {
  std::string out = "program '" + p.name + "' (id " +
                    std::to_string(p.id.value) + "): " +
                    std::to_string(p.code.size()) + " instrs, " +
                    std::to_string(p.num_threads()) + " thread(s), " +
                    std::to_string(p.num_inputs) + " input(s), " +
                    std::to_string(p.num_branch_sites) + " branch site(s)\n";
  for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
    for (std::size_t t = 0; t < p.thread_entries.size(); ++t) {
      if (p.thread_entries[t] == pc) {
        out += "     --- thread " + std::to_string(t) + " ---\n";
      }
    }
    out += disassemble_instr(p.code[pc], pc) + "\n";
  }
  return out;
}

std::string disassemble_decoded(const Program& p, const DecodedProgram& d) {
  std::string out = "program '" + p.name + "' decoded: " +
                    std::to_string(d.code.size()) + " slot(s), " +
                    std::to_string(d.fused_slots) + " fused, fusion " +
                    (d.fused ? "on" : "off") + "\n";
  char buf[256];
  for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
    for (std::size_t t = 0; t < p.thread_entries.size(); ++t) {
      if (p.thread_entries[t] == pc) {
        out += "     --- thread " + std::to_string(t) + " ---\n";
      }
    }
    const DecodedInstr& slot = d.code[pc];
    if (slot.len == 2) {
      // The superinstruction's halves, in execution order. The second pc
      // keeps its own plain slot below (branch targets can land there).
      std::snprintf(buf, sizeof(buf), "%4u: [%s]  %s ; %s", pc,
                    tok_name(slot.tok), instr_text(p.code[pc]).c_str(),
                    instr_text(p.code[pc + 1]).c_str());
      out += buf;
      out += "\n";
    } else {
      out += disassemble_instr(p.code[pc], pc) + "\n";
    }
  }
  return out;
}

std::string format_pair_counts(const OpPairCounts& counts,
                               std::size_t top_n) {
  const auto pairs = counts.sorted();
  const std::uint64_t total = counts.total();
  std::string out = "opcode pairs (dynamic fallthrough successors, " +
                    std::to_string(total) + " total):\n";
  char buf[160];
  std::size_t shown = 0;
  for (const auto& pair : pairs) {
    if (top_n != 0 && shown == top_n) break;
    const double pct =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(pair.count) /
                               static_cast<double>(total);
    // The superinstruction the pair *can* select, ignoring the program
    // context fuse_token (decode.cpp) also checks: the table is opcode-level.
    const SuperInfo* fuse = super_pair(pair.first, pair.second);
    std::snprintf(buf, sizeof(buf), "  %-6s -> %-6s %10llu  %5.1f%%%s%s\n",
                  op_name(pair.first), op_name(pair.second),
                  static_cast<unsigned long long>(pair.count), pct,
                  fuse != nullptr ? "  fuses: " : "",
                  fuse != nullptr ? fuse->name : "");
    out += buf;
    shown++;
  }
  if (top_n != 0 && pairs.size() > top_n) {
    out += "  ... " + std::to_string(pairs.size() - top_n) +
           " more pair(s)\n";
  }
  return out;
}

}  // namespace softborg
