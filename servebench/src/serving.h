// The serving stack a workload drives, its closed-loop timed phase, and
// the live tenant moves that follow it on the routed path.
#ifndef SERVEBENCH_SERVING_H_
#define SERVEBENCH_SERVING_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "servebench/src/common.h"
#include "servebench/src/oracle.h"
#include "src/net/cover_backend.h"
#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/service/catalog_service.h"

namespace servebench {

/// Everything one workload stands up. Members are declared so that
/// destruction runs router -> client connections -> servers -> services.
struct Rig {
  explicit Rig(const WorkloadConfig& c) : config(c) {}

  const WorkloadConfig& config;
  std::vector<std::unique_ptr<cfdprop::CatalogService>> services;
  std::vector<std::unique_ptr<cfdprop::net::CoverServer>> servers;
  std::unique_ptr<cfdprop::net::InProcBackend> inproc;
  /// tcp: one connection per client.
  std::vector<std::unique_ptr<cfdprop::net::RemoteBackend>> remotes;
  std::unique_ptr<cfdprop::net::CoverRouter> router;
  /// Owning service index of every tenant.
  std::vector<size_t> shard_of;

  cfdprop::net::CoverBackend& BackendFor(size_t client);
  cfdprop::CatalogService& ServiceOf(size_t tenant) {
    return *services[shard_of[tenant]];
  }
  /// The tenant's engine on its owning service (null if not open).
  cfdprop::TenantHandle Handle(size_t tenant);
};

/// Stands the rig up: services, servers, router and connections, tenant
/// opens (Σ registration) and warm-up batches. `call_s` receives the time
/// spent inside calls into the program; input generation is excluded.
cfdprop::Result<std::unique_ptr<Rig>> StandUp(
    const WorkloadConfig& config, uint64_t seed,
    const std::vector<std::vector<Batch>>& streams, double* call_s);

/// What one closed-loop phase measured.
struct LoopResult {
  std::vector<double> batch_us;        // every batch, submit to reply
  std::vector<double> batch_end_s;     // each batch's reply, from phase start
  std::vector<uint32_t> batch_covers;  // covers each batch served
  std::vector<double> mutation_us;     // churner mutations (churn only)
  double wall_s = 0;
  double cpu_s = 0;
  /// StolenShare over the whole phase.
  double stolen = 0;
  uint64_t covers = 0;
  uint64_t hits = 0;  // results the engine reported as cache hits
  std::vector<double> window_rate;    // covers/s in each whole second
  std::vector<double> window_steal;   // host steal share in each second
  std::vector<double> window_stolen;  // StolenShare in each second
  OpCounts ops;
  ServedCovers served;
  uint64_t fingerprinted = 0;  // covers the oracle bookkeeping hashed
};

/// One batch in this many has every cover fingerprinted for the oracle.
inline constexpr size_t kFingerprintEvery = 64;

/// Runs the closed loop for `seconds`: every client sends its next batch
/// only after the reply to the last. With `churn_pairs` > 0, a churner
/// applies that many AddCfd/RetractCfd pairs through the owning engine,
/// evenly spaced, and each served cover is keyed by the Σ state its
/// submit-to-reply window saw. For the oracle, a client fingerprints the
/// first cover of each (tenant, view) in every stable Σ period, every
/// cover whose window straddled a mutation, and every cover of one batch
/// in kFingerprintEvery; the rest of the loop's work is the program's.
LoopResult RunLoop(Rig& rig, const std::vector<std::vector<Batch>>& streams,
                   const std::vector<cfdprop::CFD>& churn_cfds, double seconds,
                   size_t churn_pairs);

/// Cache and mutation counters summed over every tenant of every service.
struct EngineTotals {
  uint64_t hits = 0, misses = 0, insertions = 0, invalidations = 0;
  uint64_t mutations = 0;
};
EngineTotals SumEngineStats(Rig& rig);

/// Live-moves every tenant config.moves_per_tenant times, one shard on
/// around the router's ring: drain and fetch the snapshot from the
/// source, warm-open on the target, flip, drop the source copy. Returns
/// each move's time in milliseconds.
std::vector<double> RunMoves(Rig& rig, uint64_t seed, OpCounts* ops);

}  // namespace servebench

#endif  // SERVEBENCH_SERVING_H_
