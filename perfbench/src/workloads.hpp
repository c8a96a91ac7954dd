// The three workloads. Each generates its inputs from config.seed, sets
// up, measures for about config.seconds, checks its outputs off the
// clock, and returns its metrics: the end-to-end set when untraced, the
// per-layer set (layers it bypasses left out) when traced. README.md
// beside this directory says why each workload exists and what it
// bypasses.

#pragma once

#include "harness.hpp"

namespace perfbench {

Outcome run_design(const RunConfig& config);
Outcome run_fleet(const RunConfig& config);
Outcome run_serve(const RunConfig& config);

}  // namespace perfbench
