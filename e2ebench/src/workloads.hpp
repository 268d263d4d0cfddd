// The benchmark's workloads. Each fills `rep` and returns 0, or returns
// nonzero when it could not run to the end.
#pragma once

#include "e2ebench/src/common.hpp"

namespace e2e {

// als-exact, als-sampled and par-als-threads.
int run_decomposition(const Options& o, Report& rep);
// serve-mixed.
int run_serve(const Options& o, Report& rep);

}  // namespace e2e
