// SoftBorg — collective information recycling for software dependability.
//
// Umbrella header: include this to get the whole public API.
//
//   #include "core/softborg.h"
//
//   auto corpus = softborg::standard_corpus();
//   softborg::WorldConfig config;
//   config.pods_per_program = 200;
//   config.days = 30;
//   softborg::World world(corpus, config);
//   world.run();                                   // Fig. 1 loop
//   auto cert = world.hive().attempt_proof(        // cumulative proof
//       corpus[0].program.id, softborg::Property::kNeverCrashes);
//
// Layering (see DESIGN.md):
//   common   — RNG, bit vectors, varints, metrics, thread pool
//   obs      — fleet telemetry: metrics registry, stage spans, exporters
//   trace    — execution by-products and their wire codec (§3.1)
//   minivm   — the program substrate: model, interpreter, replay, corpus
//   sym      — symbolic expressions, constraint solver, symbolic executor,
//              SAT solvers and the portfolio (§3.3, §4)
//   tree     — the collective execution tree (§3.2)
//   privacy  — anonymization, k-anonymity gate, information content (§3.1)
//   net      — the simulated unreliable network
//   pod      — the per-instance runtime and the pod<->hive protocol
//   hive     — bug detection, fix synthesis, proofs, guidance, cooperative
//              symbolic execution (§3.3, §4)
//   core     — the World fleet simulation tying it all together (Fig. 1)
#pragma once

#include "common/bitvec.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/world.h"
#include "dist/channel.h"
#include "dist/frame.h"
#include "dist/ring.h"
#include "dist/router.h"
#include "dist/socket.h"
#include "dist/worker.h"
#include "hive/bugs.h"
#include "hive/coop.h"
#include "hive/fixer.h"
#include "hive/guidance.h"
#include "hive/hive.h"
#include "hive/proof.h"
#include "hive/report.h"
#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/disasm.h"
#include "minivm/interp.h"
#include "minivm/program.h"
#include "minivm/random_program.h"
#include "minivm/replay.h"
#include "net/simnet.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "pod/pod.h"
#include "pod/protocol.h"
#include "privacy/anonymize.h"
#include "privacy/entropy.h"
#include "sym/cnf.h"
#include "sym/csolver.h"
#include "sym/executor.h"
#include "sym/expr.h"
#include "sym/portfolio.h"
#include "sym/sat.h"
#include "trace/codec.h"
#include "trace/sampling.h"
#include "trace/trace.h"
#include "tree/exec_tree.h"
#include "tree/tree_codec.h"
