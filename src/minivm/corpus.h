// Benchmark corpus: MiniVM programs with realistic structure and planted
// bugs, used by the examples, the test suite, and every experiment.
//
// Each entry documents its input domain (what the simulated user population
// draws from) and which bug classes it plants, so experiments can check
// ground truth (did the hive find the planted deadlock? did the fix stop
// the planted crash?).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/varint.h"
#include "minivm/program.h"

namespace softborg {

struct InputDomain {
  Value lo = 0;
  Value hi = 0;

  Value width() const { return hi - lo + 1; }
};

struct CorpusEntry {
  Program program;
  std::string description;
  std::vector<InputDomain> domains;  // one per input slot

  // Ground truth about planted bugs.
  bool has_crash_bug = false;
  bool has_deadlock_bug = false;
  bool has_schedule_bug = false;  // atomicity violation: diagnosable, not
                                  // automatically fixable (repair-lab case)

  // For relaxed-consistency (S2E-style) experiments: entry pc of the
  // program's "unit of interest" and the registers that form its interface.
  std::uint32_t unit_entry_pc = 0;
  std::vector<Reg> unit_params;
};

// A small single-threaded "parser": crashes (div-by-zero) for format==13
// and size>=200. Inputs: format [0,63], size [0,255].
CorpusEntry make_media_parser();

// Two-thread transfer with an input-dependent AB-BA deadlock: thread 1
// acquires in reverse order when amount > 100. Input: amount [0,200].
CorpusEntry make_bank_transfer();

// Read-process loop over syscall 0 (read); crashes on a zero-length read
// (div-by-zero computing an average). Inputs: chunk [1,64], rounds [1,8].
CorpusEntry make_file_copier();

// Needle-in-a-haystack: aborts iff key == 4242. Input: key [0,9999].
CorpusEntry make_magic_lookup();

// Pure coverage program: k independent binary options, 2^k feasible paths,
// no bugs. Input: k slots, each [0,1].
CorpusEntry make_config_space(unsigned k);

// Program with an internal "unit" guarded by the caller: main clamps its
// argument into [0,99] before the unit runs, while the unit defensively
// aborts on negative values — a path that is infeasible in-system but
// appears under relaxed (unit-level) consistency.
CorpusEntry make_worker_pool();

// Two threads increment a shared counter without locking; a final assert
// on the total fails under unlucky interleavings (atomicity violation).
CorpusEntry make_race_counter(unsigned increments_per_thread = 4);

// Skewed workload for cooperative-exploration experiments: k binary options
// (2^k feasible paths) followed by a processing loop whose trip count is
// `heavy_iterations` when option 0 is set and 1 otherwise — one top-level
// subtree is ~heavy_iterations x more expensive to explore than the other.
// Bug-free.
CorpusEntry make_skewed_workload(unsigned k, unsigned heavy_iterations = 24);

// Dining philosophers with `n` philosophers (threads) and `n` forks
// (locks): every philosopher picks up the left fork then the right one —
// the classic length-n lock-order cycle. Deadlocks under some schedules.
CorpusEntry make_dining_philosophers(unsigned n = 3);

// Retry storm: retries a syscall until it succeeds, but when attempts
// exceed a threshold AND the input "strict mode" flag is set, the
// back-off computation underflows and the loop never terminates — an
// input+environment dependent hang (detected via user-kill inference).
CorpusEntry make_retry_storm();

// The standard mixed corpus used by fleet experiments.
std::vector<CorpusEntry> standard_corpus();

// Appends the corpus identity (entry count, then program ids in order) to a
// resume fingerprint, so a snapshot taken over another corpus is refused.
void put_corpus_ids(Bytes& out, const std::vector<CorpusEntry>& corpus);

}  // namespace softborg
