#include "minivm/corpus.h"

#include "minivm/builder.h"

namespace softborg {

CorpusEntry make_media_parser() {
  ProgramBuilder b("media_parser", 1);
  const Reg format = b.reg(), size = b.reg(), tmp = b.reg(), out = b.reg();
  const Reg zero = b.reg();
  const std::uint32_t in_format = b.input_slot(), in_size = b.input_slot();

  auto L_small = b.label(), L_big = b.label(), L_tiny = b.label(),
       L_chk13 = b.label(), L_fmt13 = b.label(), L_other = b.label(),
       L_crash = b.label(), L_safe13 = b.label(), L_lo = b.label(),
       L_hi = b.label(), L_done = b.label();

  b.input(format, in_format);
  b.input(size, in_size);

  // if (format < 32) { parse "small" family } else { "big" family }
  b.cmp_lt_const(tmp, format, 32);
  b.branch_if(tmp, L_small, L_big);

  b.bind(L_small);
  // if (size < 16) quick path
  b.cmp_lt_const(tmp, size, 16);
  b.branch_if(tmp, L_tiny, L_chk13);

  b.bind(L_tiny);
  b.output(size);
  b.jump(L_done);

  b.bind(L_chk13);
  // if (format == 13) the buggy decoder
  b.cmp_eq_const(tmp, format, 13);
  b.branch_if(tmp, L_fmt13, L_other);

  b.bind(L_fmt13);
  // if (size >= 200): divide by (size - size) — planted div-by-zero.
  b.cmp_lt_const(tmp, size, 200);
  b.branch_if(tmp, L_safe13, L_crash);

  b.bind(L_crash);
  b.sub(zero, size, size);  // always 0
  b.const_(out, 1000);
  b.div(out, out, zero);  // CRASH: div-by-zero
  b.jump(L_done);

  b.bind(L_safe13);
  b.output(size);
  b.jump(L_done);

  b.bind(L_other);
  b.add_const(out, size, 1);
  b.output(out);
  b.jump(L_done);

  b.bind(L_big);
  // if (size < 128) cheap path else rich path
  b.cmp_lt_const(tmp, size, 128);
  b.branch_if(tmp, L_lo, L_hi);
  b.bind(L_lo);
  b.const_(out, 2);
  b.output(out);
  b.jump(L_done);
  b.bind(L_hi);
  b.const_(out, 3);
  b.output(out);
  b.jump(L_done);

  b.bind(L_done);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "single-threaded parser; div-by-zero when format==13 && size>=200";
  e.domains = {{0, 63}, {0, 255}};
  e.has_crash_bug = true;
  return e;
}

CorpusEntry make_bank_transfer() {
  ProgramBuilder b("bank_transfer", 2);
  const std::uint32_t lock_a = b.lock(), lock_b = b.lock();
  const std::uint32_t g_balance = b.global();
  const std::uint32_t in_amount = b.input_slot();

  // --- thread 0: debit: lock A, then B ---
  const Reg amt0 = b.reg(), bal0 = b.reg();
  b.input(amt0, in_amount);
  b.lock_acq(lock_a);
  b.yield();  // widen the race window
  b.lock_acq(lock_b);
  b.loadg(bal0, g_balance);
  b.add(bal0, bal0, amt0);
  b.storeg(g_balance, bal0);
  b.lock_rel(lock_b);
  b.lock_rel(lock_a);
  b.halt();

  // --- thread 1: credit: B then A when amount > 100 (the bug), else A,B ---
  b.start_thread();
  const Reg amt1 = b.reg(), bal1 = b.reg(), t1 = b.reg();
  auto L_rev = b.label(), L_fwd = b.label(), L_body = b.label(),
       L_done1 = b.label(), L_rel_rev = b.label(), L_rel_fwd = b.label();
  b.input(amt1, in_amount);
  b.cmp_lt_const(t1, amt1, 101);  // amt <= 100 ?
  b.branch_if(t1, L_fwd, L_rev);

  b.bind(L_rev);  // buggy ordering
  b.lock_acq(lock_b);
  b.yield();
  b.lock_acq(lock_a);
  b.jump(L_body);

  b.bind(L_fwd);  // correct ordering
  b.lock_acq(lock_a);
  b.lock_acq(lock_b);
  b.jump(L_body);

  b.bind(L_body);
  b.loadg(bal1, g_balance);
  b.sub(bal1, bal1, amt1);
  b.storeg(g_balance, bal1);
  // Release in the matching order.
  b.cmp_lt_const(t1, amt1, 101);
  b.branch_if(t1, L_rel_fwd, L_rel_rev);
  b.bind(L_rel_rev);
  b.lock_rel(lock_a);
  b.lock_rel(lock_b);
  b.jump(L_done1);
  b.bind(L_rel_fwd);
  b.lock_rel(lock_b);
  b.lock_rel(lock_a);
  b.jump(L_done1);
  b.bind(L_done1);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "two-thread transfer; AB-BA deadlock when amount>100 under an "
      "unlucky interleaving";
  e.domains = {{0, 200}};
  e.has_deadlock_bug = true;
  return e;
}

CorpusEntry make_file_copier() {
  ProgramBuilder b("file_copier", 3);
  const Reg chunk = b.reg(), rounds = b.reg(), got = b.reg(), total = b.reg(),
            i = b.reg(), tmp = b.reg(), avg = b.reg();
  const std::uint32_t in_chunk = b.input_slot(), in_rounds = b.input_slot();

  auto L_loop = b.label(), L_read_ok = b.label(), L_err = b.label(),
       L_next = b.label(), L_done = b.label();

  b.input(chunk, in_chunk);
  b.input(rounds, in_rounds);
  b.const_(total, 0);
  b.const_(i, 0);

  b.bind(L_loop);
  b.cmp_lt(tmp, i, rounds);
  b.branch_if(tmp, L_read_ok, L_done);

  b.bind(L_read_ok);
  b.syscall(got, /*sys_id=*/0, chunk);  // read(chunk)
  b.cmp_lt_const(tmp, got, 0);
  b.branch_if(tmp, L_err, L_next);

  b.bind(L_err);
  b.const_(tmp, -1);
  b.output(tmp);
  b.jump(L_done);

  b.bind(L_next);
  b.add(total, total, got);
  // BUG: average = total / got — crashes when the read returned 0 bytes.
  b.div(avg, total, got);
  b.output(avg);
  b.add_const(i, i, 1);
  b.jump(L_loop);

  b.bind(L_done);
  b.output(total);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "read-process loop; div-by-zero on a zero-length (short) read";
  e.domains = {{1, 64}, {1, 8}};
  e.has_crash_bug = true;
  return e;
}

CorpusEntry make_magic_lookup() {
  ProgramBuilder b("magic_lookup", 4);
  const Reg key = b.reg(), tmp = b.reg();
  const std::uint32_t in_key = b.input_slot();
  auto L_hit = b.label(), L_miss = b.label();

  b.input(key, in_key);
  b.cmp_eq_const(tmp, key, 4242);
  b.branch_if(tmp, L_hit, L_miss);
  b.bind(L_hit);
  b.abort_now(77);  // the needle
  b.bind(L_miss);
  b.output(key);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description = "aborts iff key == 4242 (1 in 10000 inputs)";
  e.domains = {{0, 9999}};
  e.has_crash_bug = true;
  return e;
}

CorpusEntry make_config_space(unsigned k) {
  ProgramBuilder b("config_space_" + std::to_string(k), 500 + k);
  const Reg opt = b.reg(), acc = b.reg(), bit = b.reg();
  b.const_(acc, 0);
  for (unsigned j = 0; j < k; ++j) {
    const std::uint32_t slot = b.input_slot();
    auto L_on = b.label(), L_off = b.label();
    b.input(opt, slot);
    b.branch_if(opt, L_on, L_off);
    b.bind(L_on);
    b.const_(bit, static_cast<Value>(1) << j);
    b.add(acc, acc, bit);
    b.jump(L_off);  // fallthrough target doubles as the off label
    b.bind(L_off);
  }
  b.output(acc);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description = "k independent options; 2^k feasible paths, bug-free";
  e.domains.assign(k, {0, 1});
  return e;
}

CorpusEntry make_worker_pool() {
  ProgramBuilder b("worker_pool", 6);
  const Reg raw = b.reg(), v = b.reg(), hundred = b.reg(), tmp = b.reg(),
            out = b.reg();
  const std::uint32_t in_raw = b.input_slot();

  auto L_neg = b.label(), L_ok = b.label(), L_lo = b.label(), L_hi = b.label(),
       L_done = b.label();

  // main: clamp argument into [0,99] before handing it to the unit.
  b.input(raw, in_raw);
  b.const_(hundred, 100);
  b.mod(v, raw, hundred);  // raw in [0,255] => v in [0,99]

  // ---- unit entry: validate-and-process(v) ----
  const std::uint32_t unit_entry = b.current_pc();
  b.cmp_lt_const(tmp, v, 0);
  b.branch_if(tmp, L_neg, L_ok);
  b.bind(L_neg);
  b.abort_now(99);  // defensive: unreachable in-system, reachable in-unit
  b.bind(L_ok);
  b.cmp_lt_const(tmp, v, 50);
  b.branch_if(tmp, L_lo, L_hi);
  b.bind(L_lo);
  b.add_const(out, v, 10);
  b.output(out);
  b.jump(L_done);
  b.bind(L_hi);
  b.sub(out, v, hundred);
  b.output(out);
  b.jump(L_done);
  b.bind(L_done);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "unit with a caller-guarded precondition; the defensive abort is "
      "infeasible in-system but feasible under unit-level consistency";
  e.domains = {{0, 255}};
  e.unit_entry_pc = unit_entry;
  e.unit_params = {v};
  return e;
}

CorpusEntry make_race_counter(unsigned increments_per_thread) {
  ProgramBuilder b("race_counter", 7);
  const std::uint32_t g_counter = b.global(), g_done = b.global();

  // thread 0: increment, then spin until thread 1 is done, then assert.
  const Reg r0 = b.reg(), expect = b.reg(), flag = b.reg(), ok = b.reg();
  for (unsigned i = 0; i < increments_per_thread; ++i) {
    b.loadg(r0, g_counter);
    b.add_const(r0, r0, 1);
    b.yield();  // widen the lost-update window
    b.storeg(g_counter, r0);
  }
  auto L_spin = b.here();
  auto L_check = b.label();
  b.loadg(flag, g_done);
  b.branch_if(flag, L_check, L_spin);
  b.bind(L_check);
  b.loadg(r0, g_counter);
  b.const_(expect, static_cast<Value>(2 * increments_per_thread));
  b.cmp_eq(ok, r0, expect);
  b.assert_true(ok, 42);  // fails on lost updates
  b.halt();

  // thread 1: increment, then signal done.
  b.start_thread();
  const Reg r1 = b.reg(), one = b.reg();
  for (unsigned i = 0; i < increments_per_thread; ++i) {
    b.loadg(r1, g_counter);
    b.add_const(r1, r1, 1);
    b.yield();
    b.storeg(g_counter, r1);
  }
  b.const_(one, 1);
  b.storeg(g_done, one);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "unsynchronized shared counter; assert fails on lost updates "
      "(atomicity violation — repair-lab case)";
  e.domains = {};
  e.has_schedule_bug = true;
  return e;
}

CorpusEntry make_skewed_workload(unsigned k, unsigned heavy_iterations) {
  ProgramBuilder b("skewed_workload_" + std::to_string(k), 800 + k);
  const Reg opt = b.reg(), acc = b.reg(), bit = b.reg(), iters = b.reg(),
            i = b.reg(), one = b.reg(), cond = b.reg();
  b.const_(acc, 0);

  // Option 0 picks the loop weight: heavy subtree vs light subtree.
  const std::uint32_t slot0 = b.input_slot();
  auto L_heavy = b.label(), L_light = b.label(), L_opts = b.label();
  b.input(opt, slot0);
  b.branch_if(opt, L_heavy, L_light);
  b.bind(L_heavy);
  b.const_(iters, static_cast<Value>(heavy_iterations));
  b.jump(L_opts);
  b.bind(L_light);
  b.const_(iters, 1);
  b.jump(L_opts);
  b.bind(L_opts);

  // Remaining k-1 options shape the path as in config_space.
  for (unsigned j = 1; j < k; ++j) {
    const std::uint32_t slot = b.input_slot();
    auto L_on = b.label(), L_off = b.label();
    b.input(opt, slot);
    b.branch_if(opt, L_on, L_off);
    b.bind(L_on);
    b.const_(bit, static_cast<Value>(1) << j);
    b.add(acc, acc, bit);
    b.jump(L_off);
    b.bind(L_off);
  }

  // Processing loop: `iters` is concrete by now, so the loop branch is
  // deterministic (no extra trace bits) — it only adds execution cost.
  b.const_(i, 0);
  b.const_(one, 1);
  auto L_top = b.here();
  auto L_body = b.label(), L_done = b.label();
  b.cmp_lt(cond, i, iters);
  b.branch_if(cond, L_body, L_done);
  b.bind(L_body);
  b.add(acc, acc, one);
  b.add(i, i, one);
  b.jump(L_top);
  b.bind(L_done);
  b.output(acc);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "2^k paths with a ~" + std::to_string(heavy_iterations) +
      "x cost skew between the two top-level subtrees (coop workloads)";
  e.domains.assign(k, {0, 1});
  return e;
}

CorpusEntry make_dining_philosophers(unsigned n) {
  SB_CHECK(n >= 2 && n <= 16);
  ProgramBuilder b("dining_philosophers_" + std::to_string(n), 810 + n);
  std::vector<std::uint32_t> forks;
  for (unsigned i = 0; i < n; ++i) forks.push_back(b.lock());
  const std::uint32_t g_meals = b.global();

  for (unsigned i = 0; i < n; ++i) {
    if (i > 0) b.start_thread();
    const Reg meals = b.reg();
    b.lock_acq(forks[i]);                // left fork
    b.yield();                           // think a little (widen the window)
    b.lock_acq(forks[(i + 1) % n]);      // right fork
    b.loadg(meals, g_meals);
    b.add_const(meals, meals, 1);
    b.storeg(g_meals, meals);
    b.lock_rel(forks[(i + 1) % n]);
    b.lock_rel(forks[i]);
    b.halt();
  }

  CorpusEntry e;
  e.program = b.build();
  e.description = "classic " + std::to_string(n) +
                  "-philosopher left-then-right fork order; length-" +
                  std::to_string(n) + " lock cycle";
  e.domains = {};
  e.has_deadlock_bug = true;
  return e;
}

CorpusEntry make_retry_storm() {
  ProgramBuilder b("retry_storm", 9);
  const Reg strict = b.reg(), chunk = b.reg(), r = b.reg(),
            attempts = b.reg(), tmp = b.reg();
  const std::uint32_t in_strict = b.input_slot(), in_chunk = b.input_slot();

  auto L_retry = b.label(), L_ok = b.label(), L_failed = b.label(),
       L_strict_check = b.label(), L_spin = b.label();

  b.input(strict, in_strict);
  b.input(chunk, in_chunk);
  b.const_(attempts, 0);

  b.bind(L_retry);
  b.syscall(r, /*sys_id=*/3, chunk);  // send(): fails ~10% of the time
  b.cmp_lt_const(tmp, r, 0);
  b.branch_if(tmp, L_failed, L_ok);

  b.bind(L_failed);
  b.add_const(attempts, attempts, 1);
  b.cmp_lt_const(tmp, attempts, 3);
  b.branch_if(tmp, L_retry, L_strict_check);

  // BUG: in strict mode, after 3 failed attempts the back-off logic wedges
  // into a busy loop instead of giving up.
  b.bind(L_strict_check);
  b.branch_if(strict, L_spin, L_retry);
  b.bind(L_spin);
  b.jump(L_spin);

  b.bind(L_ok);
  b.output(r);
  b.halt();

  CorpusEntry e;
  e.program = b.build();
  e.description =
      "retries a failing send(); in strict mode wedges into a busy loop "
      "after 3 failures (input+environment dependent hang)";
  e.domains = {{0, 1}, {1, 32}};
  e.has_crash_bug = false;
  return e;
}

std::vector<CorpusEntry> standard_corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_media_parser());
  corpus.push_back(make_bank_transfer());
  corpus.push_back(make_file_copier());
  corpus.push_back(make_magic_lookup());
  corpus.push_back(make_config_space(10));
  corpus.push_back(make_worker_pool());
  corpus.push_back(make_race_counter());
  return corpus;
}

void put_corpus_ids(Bytes& out, const std::vector<CorpusEntry>& corpus) {
  put_varint(out, corpus.size());
  for (const auto& entry : corpus) put_varint(out, entry.program.id.value);
}

}  // namespace softborg
