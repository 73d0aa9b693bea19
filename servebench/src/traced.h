// The traced run: per-layer numbers for one workload.
//
// It replays a fixed sample of the workload's batches down a ladder of
// public entry points — Engine::PropagateBatch, CatalogService,
// InProcBackend, RemoteBackend, CoverRouter — with the cache in the same
// state at every depth, and takes each layer's self time as its depth
// minus the one below, paired per batch. Beside that it times single
// calls of each layer (the Fig. 2 pipeline, MinCover, fingerprinting,
// engine hits and misses, the wire codec, snapshot fetch and warm open),
// runs the closed loop in alternating untraced/traced slices for the
// engine counters and the tracing overhead, and reads back the stage
// spans the program's own obs::Tracer records.
#ifndef SERVEBENCH_TRACED_H_
#define SERVEBENCH_TRACED_H_

#include <vector>

#include "servebench/src/common.h"
#include "servebench/src/oracle.h"
#include "src/base/status.h"

namespace servebench {

/// One timed call of the ladder: which depth, which sampled batch and
/// repetition, and when it started (us since the ladder began) and how
/// long it took.
struct LadderSpan {
  const char* depth;
  size_t batch;
  size_t rep;
  double start_us;
  double dur_us;
};

/// Runs the traced measurements; every served cover lands in `served`
/// for the oracle and every ladder call in `spans`.
cfdprop::Status RunTraced(const WorkloadConfig& config, uint64_t seed,
                          double seconds,
                          const std::vector<std::vector<Batch>>& streams,
                          const std::vector<cfdprop::CFD>& churn_cfds,
                          Metrics* metrics, OpCounts* ops,
                          ServedCovers* served,
                          std::vector<LadderSpan>* spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACED_H_
