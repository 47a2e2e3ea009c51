// The pre-dispatch-rebuild nested-switch interpreter, frozen as a test
// oracle (interp_ref.cpp). Semantically identical to execute(); ignores
// enable_fusion / pair_counts. Only dispatch_diff_test and the
// bench_pod_execute baseline link it.
#pragma once

#include "minivm/interp.h"

namespace softborg {

ExecResult execute_reference(const Program& program, const ExecConfig& config);

}  // namespace softborg
