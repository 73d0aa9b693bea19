// Shared pieces of the cover-serving benchmark: the workload shapes,
// seeded inputs, exact-sample statistics, host stamps and the JSON
// result line.
#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/view.h"
#include "src/cfd/cfd.h"
#include "src/parser/parser.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The serving path a workload's clients drive.
enum class Path { kInproc, kTcp, kRouted };

/// One workload's shape. Everything a run does follows from this and
/// the seed.
struct WorkloadConfig {
  std::string name;
  Path path = Path::kInproc;
  size_t tenants = 4;
  size_t sigma_size = 400;     // |Σ| per tenant, before minimization
  size_t spc_views = 32;       // declared SPC views V0..V{n-1}
  size_t union_views = 0;      // U_i = V_i ∪ V_{i+1}, i < union_views
  size_t cache_per_tenant = 256;
  size_t batch_size = 16;
  size_t clients = 2;
  size_t dispatchers = 2;      // per service
  size_t shards = 1;           // services
  size_t churn_pairs = 0;      // AddCfd/RetractCfd pairs during the timed phase
  size_t moves_per_tenant = 0; // live moves after the timed phase (routed)
  size_t setup_repeats = 15;   // set-ups per run; setup_s is their median
  size_t stream_batches = 1024;  // pre-generated batches per client (cycled)
  size_t semantic_sample = 6;  // covers checked by IsPropagated/Implies
};

/// The named workloads; `smoke` shrinks each to a seconds-long run of the
/// same code.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadConfig* out);

/// |Y|, |F|, |Ec| of every generated view, and the CFD generator's LHS
/// range — reported in the header.
struct GenKnobs {
  size_t projection = 10;
  size_t selections = 4;
  size_t atoms = 2;
  size_t min_lhs = 2;
  size_t max_lhs = 5;
  uint32_t var_pct = 40;
};
inline constexpr GenKnobs kGen{};

/// One tenant's generated spec, rebuilt identically from (seed, tenant):
/// every open and the oracle get their own copy with their own pool.
cfdprop::Spec BuildSpec(const WorkloadConfig& config, uint64_t seed,
                        size_t tenant);

std::string TenantName(size_t tenant);
/// View names: "V<i>" for i < spc_views, then "U<i>".
std::string ViewName(const WorkloadConfig& config, size_t view);
size_t NumViews(const WorkloadConfig& config);

/// The churn CFD of a tenant: a plain FD A -> B over an attribute pair
/// of one relation that views project together. Pairs are tried from the
/// most projected down, and the first FD that changes the cover of one
/// of those views is taken, so the mutation changes covers a reader sees. Never part of the
/// generated Σ (that has >= 2 LHS attributes), so a retraction restores
/// Σ exactly. Computing covers may intern values into `spec`'s pool.
cfdprop::CFD ChurnCfd(const WorkloadConfig& config, cfdprop::Spec& spec);

/// A pre-generated request stream: per client, batches of view indices
/// of one tenant each.
struct Batch {
  size_t tenant = 0;
  std::vector<uint32_t> views;
  std::vector<std::string> names;
};
std::vector<std::vector<Batch>> BuildStreams(const WorkloadConfig& config,
                                             uint64_t seed);

// ------------------------------------------------------------ statistics

/// Exact nearest-rank quantile of raw samples (sorts a copy).
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

/// Process CPU time (user + sys) in seconds.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMiB();

/// /proc/stat and /proc/loadavg readings, for the steal share and load
/// over a run.
struct HostSample {
  uint64_t steal = 0;
  uint64_t busy = 0;  // user, nice, system, irq and softirq
  uint64_t total = 0;
  double load1 = 0;
};
HostSample ReadHost();

/// The share of the time the machine's running vCPUs wanted that the
/// hypervisor gave to other guests between two samples:
/// steal / (steal + busy); 0 without readings. A vCPU accrues steal only
/// while it has work, so this is the share of a busy CPU's time the
/// host took away, which the host-wide steal share understates by the
/// idle CPUs it counts.
double StolenShare(const HostSample& from, const HostSample& to);

// ---------------------------------------------------------------- output

/// One reported metric: value plus unit, and for quantiles the number of
/// samples it was read from.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Counts per operation type, printed in the header and folded into the
/// result line's attempted/failed.
struct OpCounts {
  uint64_t batches = 0, batches_failed = 0;
  uint64_t requests = 0, requests_failed = 0;
  uint64_t mutations = 0, mutations_failed = 0;
  uint64_t migrations = 0, migrations_failed = 0;
};

std::string FormatNumber(double v);

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
