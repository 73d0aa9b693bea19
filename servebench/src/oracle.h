// The output oracle, run outside every timed phase.
//
// Each distinct (tenant, view, Σ state) a workload served must match, by
// the pool-independent FingerprintSigmaSet, the cover that a cache-off
// one-shot PropagationCoverSPC / PropagationCoverSPCU computes from the
// raw Σ of that state. The oracle minimizes each state's raw Σ once and
// runs the one-shot pipeline with input_mincover off — Fig. 2 line 1
// hoisted, exactly what the one-shot SPCU path does itself — and on a
// sample it reruns the full one-shot from the raw Σ to show the hoist
// changes nothing. On a second sample it checks the paper's definition
// directly, independent of RBR: every member passes the chase-based
// IsPropagated, and (SPC covers only; unions are sound-only) no member is
// implied by the others.
#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "servebench/src/common.h"
#include "src/base/status.h"

namespace servebench {

/// Σ state of a served cover: the base Σ, Σ plus the churn CFD, or
/// unknown (the request's submit-to-reply window overlapped a mutation,
/// so either state is a correct answer).
enum SigmaState : unsigned { kBase = 0, kChurned = 1, kEither = 2 };

inline uint64_t PackKey(size_t tenant, size_t view, unsigned state) {
  return (static_cast<uint64_t>(tenant) << 40) |
         (static_cast<uint64_t>(view) << 4) | state;
}

/// key -> every distinct cover fingerprint served under it.
using ServedCovers = std::map<uint64_t, std::set<uint64_t>>;

struct OracleReport {
  uint64_t keys = 0;             // distinct (tenant, view, state) checked
  uint64_t straddled_keys = 0;   // of which state kEither
  uint64_t raw_one_shot = 0;     // full raw-Σ one-shot reruns
  uint64_t semantic_covers = 0;  // covers checked against the definition
  uint64_t semantic_members = 0;
  /// Churn only: share of requested SPC views whose cover differs
  /// between the two Σ states (a stale line is only visible there).
  double differing_share = 0;
  std::vector<std::string> failures;
};

/// Checks every served key. `churn` adds the churned Σ state.
OracleReport RunOracle(const WorkloadConfig& config, uint64_t seed,
                       bool churn, const ServedCovers& served);

/// Feeds the oracle corrupted covers — a dropped member, an added
/// non-propagated CFD, an added implied CFD, a stale cover — and returns
/// an error unless every one is caught.
cfdprop::Status OracleSelfTest(const WorkloadConfig& config, uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
