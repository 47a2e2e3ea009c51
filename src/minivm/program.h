// MiniVM program model (paper §2, Fig. 2: "every program encodes an
// execution tree").
//
// MiniVM is the stand-in for real end-user software: a small register
// machine with program-external inputs, system calls, shared globals,
// threads, and locks. It is deliberately small but keeps the properties
// SoftBorg relies on: input-dependent branching (so executions are encoded
// as branch bit-vectors), thread interleavings (so deadlocks exist), and a
// path-constraint semantics that the symbolic executor can mirror exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "minivm/ops.h"

namespace softborg {

using Reg = std::uint16_t;

struct Instr {
  Op op = Op::kHalt;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  Value imm = 0;
  // Dense static decision-site id (0..num_branch_sites-1). Branches are
  // decision sites, and so are the instructions that can crash on a
  // data-dependent condition (kAssert, kDiv, kMod): surviving such a check
  // is a decision of the execution tree — otherwise two executions with
  // identical branch decisions could differ in outcome and the collective
  // tree could not represent (or prove anything about) the difference.
  std::uint32_t site = 0;
};

struct Program {
  ProgramId id;
  std::string name;
  std::vector<Instr> code;
  std::vector<std::uint32_t> thread_entries;  // pc of each thread's entry
  std::uint16_t num_regs = 0;     // registers per thread
  std::uint16_t num_globals = 0;  // shared mutable globals
  std::uint16_t num_locks = 0;
  std::uint16_t num_inputs = 0;   // program-external input slots
  std::uint32_t num_branch_sites = 0;

  std::size_t num_threads() const { return thread_entries.size(); }

  const Instr& at(std::uint32_t pc) const {
    SB_CHECK(pc < code.size());
    return code[pc];
  }

  // Structural sanity: known opcodes, every operand within the bound its
  // kind declares (ops.h), dense decision-site numbering.
  bool validate(std::string* error = nullptr) const;
};

}  // namespace softborg
