// Per-layer measurements made from outside the program: the benchmark
// times its own calls into each layer's public functions (and reads the
// counters those calls leave), with no load running.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/deploy.h"
#include "e2ebench/src/driver.h"
#include "e2ebench/src/stats.h"

namespace e2e {

/// One reported number.  `samples` is what a percentile was taken over
/// (0 for counts and single measurements).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// Runs the in-process layer probes against an idle deployment and
/// appends their metrics: net.ping_*, server.inproc_*, core.*, exec.*,
/// index.*.  In-process writes are checked by `oracle` like wire writes.
void MeasureIdleLayers(Deployment* d, const WorkloadConfig& w,
                       const Dataset& ds, Oracle* oracle, Tracer* tracer,
                       std::vector<Metric>* out, std::string* error);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
