// The three workloads. Each fills `out` with the end-to-end metrics (an
// untraced run) or the per-layer metrics (a traced run), and records a
// failed correctness gate in `out.correct`.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_fit_batch(const Options& opt, Result& out);
void run_serve_zipf(const Options& opt, Result& out);
void run_churn_uniform(const Options& opt, Result& out);

}  // namespace perfbench
