#include "servebench/src/traced.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>

#include "servebench/src/serving.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/fingerprint.h"
#include "src/engine/snapshot.h"
#include "src/net/wire_protocol.h"
#include "src/obs/trace.h"

namespace servebench {

using cfdprop::CatalogService;
using cfdprop::CFD;
using cfdprop::Engine;
using cfdprop::Result;
using cfdprop::Status;
using cfdprop::TenantHandle;
namespace net = cfdprop::net;
namespace obs = cfdprop::obs;

namespace {

/// Ladder depths, bottom up. Each is a public entry point one layer
/// above the previous one.
enum Depth { kEngine, kService, kInproc, kRemote, kRouter, kDepths };
constexpr const char* kDepthNames[kDepths] = {
    "Engine::PropagateBatch", "CatalogService::SubmitBatches",
    "InProcBackend", "RemoteBackend", "CoverRouter"};

/// Stage spans the program's tracer records, read back as span.<name>_us.
/// The tracer keeps whole microseconds, so the sub-microsecond stages
/// ("admission", "decode") read 0; they are printed, not reported.
constexpr const char* kSpanNames[] = {
    "queue_wait", "dispatch", "propagate", "reply", "compute",
    "encode",     "write",    "rpc",       "route", "request"};
constexpr const char* kSubMicroSpans[] = {"admission", "decode"};

/// Times `fn` `reps` times and returns the median in microseconds.
template <typename Fn>
double MedianMicros(size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(MicrosBetween(t0, Clock::now()));
  }
  return Median(us);
}

/// One service behind every layer of the ladder, plus a second server the
/// wire tenant moves to. The in-process depths serve tenant `local`, the
/// wire depths tenant `wire` (a second open of the same spec on the same
/// service, named so that the router's ring places it on server 0).
struct Ladder {
  std::vector<std::unique_ptr<CatalogService>> services;
  std::vector<std::unique_ptr<net::CoverServer>> servers;
  std::unique_ptr<net::InProcBackend> inproc;
  std::unique_ptr<net::RemoteBackend> remote;
  std::unique_ptr<net::CoverRouter> router;
  std::string local, wire;
  std::map<std::string, cfdprop::SPCUView> views;  // in `local`'s pool
  TenantHandle local_handle, wire_handle;
};

Result<std::unique_ptr<Ladder>> BuildLadder(const WorkloadConfig& config,
                                            uint64_t seed) {
  auto ladder = std::make_unique<Ladder>();
  cfdprop::ServiceOptions options;
  options.dispatcher_threads = config.dispatchers;
  options.global_cache_budget = 2 * config.cache_per_tenant;
  options.engine.num_threads = 1;
  for (int s = 0; s < 2; ++s) {
    ladder->services.push_back(std::make_unique<CatalogService>(options));
    ladder->servers.push_back(
        std::make_unique<net::CoverServer>(*ladder->services.back()));
    CFDPROP_RETURN_NOT_OK(ladder->servers.back()->Start());
  }
  net::CoverClientOptions copts;
  copts.connect_timeout = std::chrono::milliseconds(10000);
  net::CoverRouterOptions ropts;
  for (auto& server : ladder->servers) {
    copts.port = server->port();
    ropts.shards.push_back(copts);
  }
  copts.port = ladder->servers[0]->port();
  ladder->remote = std::make_unique<net::RemoteBackend>(copts);
  CFDPROP_RETURN_NOT_OK(ladder->remote->Connect());
  ladder->router = std::make_unique<net::CoverRouter>(std::move(ropts));
  ladder->inproc = std::make_unique<net::InProcBackend>(*ladder->services[0]);

  ladder->local = TenantName(0);
  for (int k = 0; ladder->wire.empty() || ladder->router->ShardFor(
                                              ladder->wire) != 0;
       ++k) {
    ladder->wire = TenantName(0) + "w" + std::to_string(k);
  }
  cfdprop::Spec spec = BuildSpec(config, seed, 0);
  ladder->views = spec.views;
  CFDPROP_RETURN_NOT_OK(
      ladder->inproc->OpenParsedSpec(ladder->local, std::move(spec)).status());
  CFDPROP_RETURN_NOT_OK(ladder->servers[0]
                            ->OpenParsedSpec(ladder->wire,
                                             BuildSpec(config, seed, 0))
                            .status());
  CFDPROP_ASSIGN_OR_RETURN(ladder->local_handle,
                           ladder->services[0]->ResolveCatalog(ladder->local));
  CFDPROP_ASSIGN_OR_RETURN(ladder->wire_handle,
                           ladder->services[0]->ResolveCatalog(ladder->wire));
  return ladder;
}

Status CheckReply(const Result<cfdprop::BatchResult>& reply) {
  CFDPROP_RETURN_NOT_OK(reply.status());
  CFDPROP_RETURN_NOT_OK(reply->status);
  for (const auto& r : reply->results) CFDPROP_RETURN_NOT_OK(r.status());
  return Status::OK();
}

/// Serves `batch` at `depth`; `reply` receives the results, `started`
/// and `us` the call's start and duration.
Status ServeAt(Ladder& ladder, Depth depth, const Batch& batch,
               cfdprop::ValuePool& pool, cfdprop::BatchResult* reply,
               Clock::time_point* started, double* us) {
  std::vector<Engine::Request> requests;
  for (const std::string& name : batch.names) {
    requests.emplace_back(ladder.views.at(name), 0);
  }
  const auto t0 = Clock::now();
  *started = t0;
  Result<cfdprop::BatchResult> result = cfdprop::BatchResult{};
  switch (depth) {
    case kEngine:
      result->results = ladder.local_handle->engine().PropagateBatch(requests);
      break;
    case kService: {
      std::vector<std::vector<Engine::Request>> batches;
      batches.push_back(std::move(requests));
      auto futures =
          ladder.services[0]->SubmitBatches(ladder.local, std::move(batches));
      if (!futures[0].ok()) {
        result = futures[0].status();
      } else {
        cfdprop::BatchReply r = futures[0]->get();
        result = static_cast<cfdprop::BatchResult&&>(std::move(r));
      }
      break;
    }
    case kInproc:
      result = ladder.inproc->SubmitBatch(ladder.local, batch.names, pool);
      break;
    case kRemote:
      result = ladder.remote->SubmitBatch(ladder.wire, batch.names, pool);
      break;
    default:
      result = ladder.router->SubmitBatch(ladder.wire, batch.names, pool);
      break;
  }
  *us = MicrosBetween(t0, Clock::now());
  CFDPROP_RETURN_NOT_OK(CheckReply(result));
  *reply = std::move(result).value();
  return Status::OK();
}

/// Folds a ladder reply into the oracle's served set (tenant 0's keys).
void RecordServed(const Batch& batch, const cfdprop::BatchResult& reply,
                  const cfdprop::ValuePool& pool, ServedCovers* served) {
  for (size_t k = 0; k < reply.results.size(); ++k) {
    (*served)[PackKey(0, batch.views[k], kBase)].insert(
        cfdprop::FingerprintSigmaSet(pool, reply.results[k]->cover->cover));
  }
}

void Add(Metrics* metrics, const char* name, double value, const char* unit,
         uint64_t samples) {
  metrics->push_back({name, Metric{value, unit, samples}});
}

/// The closed loop in alternating untraced/traced slices: engine
/// counters, queue waits, edge latencies and the tracing overhead.
Status MeasureLoop(const WorkloadConfig& config, uint64_t seed, double seconds,
                   const std::vector<std::vector<Batch>>& streams,
                   const std::vector<CFD>& churn_cfds, Metrics* metrics,
                   OpCounts* ops, ServedCovers* served) {
  // Serving threads can still be recording a span after the reply that
  // ends a slice, so every tracer outlives the rig (declared before it).
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  double setup_s = 0;  // reported by untraced runs only
  CFDPROP_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig,
                           StandUp(config, seed, streams, &setup_s));
  const size_t slices = 4;
  const size_t slice_pairs =
      config.churn_pairs == 0 ? 0
                              : std::max<size_t>(1, config.churn_pairs / slices);
  std::vector<double> untraced_batch_us, queue_wait_us;
  double covers[2] = {0, 0}, wall[2] = {0, 0};
  const EngineTotals before = SumEngineStats(*rig);
  for (size_t s = 0; s < slices; ++s) {
    const bool traced = s % 2 == 1;
    std::unique_ptr<obs::ScopedProcessTracer> scope;
    if (traced) {
      obs::ObsOptions topts;  // the default 1/64 sampling
      topts.trace_ring_capacity = 1 << 16;
      tracers.push_back(std::make_unique<obs::Tracer>(topts));
      scope = std::make_unique<obs::ScopedProcessTracer>(tracers.back().get());
    }
    LoopResult loop = RunLoop(*rig, streams, churn_cfds, seconds / slices,
                              slice_pairs);
    covers[traced] += static_cast<double>(loop.covers);
    wall[traced] += loop.wall_s * (1 - loop.stolen);
    if (!traced) {
      untraced_batch_us.insert(untraced_batch_us.end(), loop.batch_us.begin(),
                               loop.batch_us.end());
    } else {
      for (const obs::SpanRecord& span : tracers.back()->Snapshot()) {
        if (!span.slow && span.name == "queue_wait") {
          queue_wait_us.push_back(static_cast<double>(span.dur_us));
        }
      }
    }
    for (auto& [key, fps] : loop.served) (*served)[key].insert(fps.begin(), fps.end());
    ops->batches += loop.ops.batches;
    ops->batches_failed += loop.ops.batches_failed;
    ops->requests += loop.ops.requests;
    ops->requests_failed += loop.ops.requests_failed;
    ops->mutations += loop.ops.mutations;
    ops->mutations_failed += loop.ops.mutations_failed;
  }
  const EngineTotals after = SumEngineStats(*rig);
  const double lookups = static_cast<double>(
      (after.hits - before.hits) + (after.misses - before.misses));
  Add(metrics, "engine.hit_ratio",
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0,
      "ratio", static_cast<uint64_t>(lookups));
  Add(metrics, "engine.duplicate_computes",
      static_cast<double>((after.misses - before.misses) -
                          (after.insertions - before.insertions)),
      "count", after.misses - before.misses);
  double snapshot_bytes = 0;
  for (size_t t = 0; t < config.tenants; ++t) {
    TenantHandle handle = rig->Handle(t);
    if (handle != nullptr) {
      snapshot_bytes += static_cast<double>(
          handle->engine().SerializeSnapshot().bytes.size());
    }
  }
  Add(metrics, "engine.snapshot_bytes", snapshot_bytes / config.tenants,
      "bytes", config.tenants);
  // Lines the churner's mutations dropped, per mutation (churn-routed;
  // the other workloads mutate nothing and read 0 over 0 mutations).
  const uint64_t mutations = after.mutations - before.mutations;
  Add(metrics, "engine.invalidations_per_mutation",
      mutations > 0 ? static_cast<double>(after.invalidations -
                                          before.invalidations) /
                          static_cast<double>(mutations)
                    : 0,
      "lines", mutations);
  rig.reset();

  const double base = wall[0] > 0 ? covers[0] / wall[0] : 0;
  const double traced_rate = wall[1] > 0 ? covers[1] / wall[1] : 0;
  Add(metrics, "trace.base_covers_per_s", base, "covers/s",
      static_cast<uint64_t>(covers[0]));
  Add(metrics, "trace.overhead_pct",
      base > 0 ? 100.0 * (base - traced_rate) / base : 0, "%",
      static_cast<uint64_t>(covers[1]));
  Add(metrics, "edge.batch_p50_us", Quantile(untraced_batch_us, 0.5), "us",
      untraced_batch_us.size());
  Add(metrics, "edge.batch_p99_us", Quantile(untraced_batch_us, 0.99), "us",
      untraced_batch_us.size());
  Add(metrics, "service.queue_wait_us", Quantile(queue_wait_us, 0.5), "us",
      queue_wait_us.size());
  return Status::OK();
}

/// The ladder: a fixed sample of the workload's batches (those of
/// tenant 0), each served at every depth, repeatedly, with the cache in
/// the same state before every call; then the program's stage spans.
/// Keeps the service depth's replies for the codec probe, and one span
/// per timed call. `tracer` samples every request and must outlive the
/// ladder's serving threads.
Status MeasureLadder(const WorkloadConfig& config, Ladder& ladder,
                     obs::Tracer* tracer,
                     const std::vector<std::vector<Batch>>& streams,
                     Metrics* metrics, OpCounts* ops, ServedCovers* served,
                     std::vector<cfdprop::BatchResult>* service_replies,
                     std::vector<LadderSpan>* spans) {
  const bool cold = NumViews(config) > config.cache_per_tenant;
  cfdprop::Catalog scratch;
  auto reset_cache = [&] {
    if (cold) {
      ladder.local_handle->engine().ClearCache();
      ladder.wire_handle->engine().ClearCache();
    }
  };
  std::vector<Batch> sample;
  for (size_t c = 0; c < streams.size() && sample.size() < 24; ++c) {
    for (const Batch& b : streams[c]) {
      if (b.tenant == 0 && sample.size() < 24) sample.push_back(b);
    }
  }
  if (sample.empty()) return Status::Internal("no ladder batches");
  if (!cold) {  // the hot set, warm at every depth
    for (const Batch& b : sample) {
      cfdprop::BatchResult reply;
      Clock::time_point t0;
      double us = 0;
      CFDPROP_RETURN_NOT_OK(
          ServeAt(ladder, kInproc, b, scratch.pool(), &reply, &t0, &us));
      CFDPROP_RETURN_NOT_OK(
          ServeAt(ladder, kRemote, b, scratch.pool(), &reply, &t0, &us));
    }
  }
  const size_t reps = 5;
  std::vector<std::vector<double>> depth_us(kDepths);  // [depth][batch]
  const cfdprop::ValuePool& local_pool =
      ladder.local_handle->engine().catalog().pool();
  const Clock::time_point epoch = Clock::now();
  for (size_t bi = 0; bi < sample.size(); ++bi) {
    const Batch& b = sample[bi];
    std::vector<std::vector<double>> times(kDepths);
    for (size_t r = 0; r < reps; ++r) {
      // Rotate the order so that no depth always runs right after another.
      for (int i = 0; i < kDepths; ++i) {
        const int d = static_cast<int>((i + r) % kDepths);
        cfdprop::BatchResult reply;
        Clock::time_point t0;
        double us = 0;
        // An untimed call at the same depth first, so that the threads
        // this depth wakes are running when the timed call starts, as
        // they are in the closed loop. Otherwise the first wire depth
        // after the in-process ones pays for waking them.
        reset_cache();
        CFDPROP_RETURN_NOT_OK(ServeAt(ladder, static_cast<Depth>(d), b,
                                      scratch.pool(), &reply, &t0, &us));
        reset_cache();
        CFDPROP_RETURN_NOT_OK(ServeAt(ladder, static_cast<Depth>(d), b,
                                      scratch.pool(), &reply, &t0, &us));
        ops->batches += 2;
        ops->requests += 2 * b.names.size();
        times[d].push_back(us);
        spans->push_back(
            LadderSpan{kDepthNames[d], bi, r, MicrosBetween(epoch, t0), us});
        if (r == 0) {
          RecordServed(b, reply, d <= kInproc ? local_pool : scratch.pool(),
                       served);
          if (d == kService) service_replies->push_back(std::move(reply));
        }
      }
    }
    for (int d = 0; d < kDepths; ++d) depth_us[d].push_back(Median(times[d]));
  }
  auto self = [&](Depth upper, Depth lower) {
    std::vector<double> diff;
    for (size_t i = 0; i < sample.size(); ++i) {
      diff.push_back(depth_us[upper][i] - depth_us[lower][i]);
    }
    return Median(diff);
  };
  std::printf("# ladder (%zu batches of %zu, %zu reps, cache %s at every "
              "depth): median us per batch\n",
              sample.size(), config.batch_size, reps,
              cold ? "cleared" : "warm");
  for (int d = 0; d < kDepths; ++d) {
    std::printf("#   %-30s %s\n", kDepthNames[d],
                FormatNumber(Median(depth_us[d])).c_str());
  }
  Add(metrics, "ladder.engine_us", Median(depth_us[kEngine]), "us",
      sample.size());
  Add(metrics, "service.self_us", self(kService, kEngine), "us", sample.size());
  Add(metrics, "net.inproc_self_us", self(kInproc, kService), "us",
      sample.size());
  Add(metrics, "net.wire_self_us", self(kRemote, kService), "us",
      sample.size());
  // The router's own work (a lock and a ring lookup) is far below this
  // host's per-batch noise: CoverRouter - RemoteBackend read from -260 to
  // +120 us across runs. Both depths are reported instead of their
  // difference.
  Add(metrics, "ladder.remote_us", Median(depth_us[kRemote]), "us",
      sample.size());
  Add(metrics, "ladder.router_us", Median(depth_us[kRouter]), "us",
      sample.size());

  // The same ladder once more with the program's tracer sampling every
  // request: its stage spans, by name.
  {
    obs::ScopedProcessTracer scope(tracer);
    for (const Batch& b : sample) {
      for (int d = kService; d < kDepths; ++d) {
        reset_cache();
        cfdprop::BatchResult reply;
        Clock::time_point t0;
        double us = 0;
        CFDPROP_RETURN_NOT_OK(ServeAt(ladder, static_cast<Depth>(d), b,
                                      scratch.pool(), &reply, &t0, &us));
        ++ops->batches;
        ops->requests += b.names.size();
      }
    }
    std::map<std::string, std::vector<double>> spans;
    for (const obs::SpanRecord& span : tracer->Snapshot()) {
      if (!span.slow) spans[span.name].push_back(static_cast<double>(span.dur_us));
    }
    for (const char* name : kSpanNames) {
      const std::vector<double>& durs = spans[name];
      metrics->push_back({std::string("span.") + name + "_us",
                          Metric{Mean(durs), "us", durs.size()}});
    }
    for (const char* name : kSubMicroSpans) {
      std::printf("# span %s: mean %s us over %zu spans (whole-us records)\n",
                  name, FormatNumber(Mean(spans[name])).c_str(),
                  spans[name].size());
    }
  }
  return Status::OK();
}

/// Single calls of each layer, on tenant 0's inputs.
Status MeasureCalls(const WorkloadConfig& config, uint64_t seed,
                    Ladder& ladder,
                    const std::vector<cfdprop::BatchResult>& service_replies,
                    Metrics* metrics) {
  cfdprop::Catalog scratch;
  const cfdprop::ValuePool& local_pool =
      ladder.local_handle->engine().catalog().pool();
  cfdprop::Spec spec = BuildSpec(config, seed, 0);
  cfdprop::Catalog& catalog = spec.catalog;
  std::vector<CFD> minimized;
  std::vector<double> mincover_us;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    auto m = cfdprop::MinCoverSigma(catalog, spec.source_cfds);
    mincover_us.push_back(MicrosBetween(t0, Clock::now()));
    CFDPROP_RETURN_NOT_OK(m.status());
    minimized = std::move(m).value();
  }
  Add(metrics, "cfd.mincover_us", Median(mincover_us), "us", mincover_us.size());

  const size_t probe_views = std::min<size_t>(16, config.spc_views);
  cfdprop::PropCoverOptions hoisted;
  hoisted.input_mincover = false;
  std::vector<double> spc_us, sigma_v, fp_us, hit_us, miss_us;
  Engine& engine = ladder.local_handle->engine();
  for (size_t v = 0; v < probe_views; ++v) {
    const cfdprop::SPCView& view = spec.views.at(ViewName(config, v)).disjuncts[0];
    size_t sigma_v_size = 0;
    spc_us.push_back(MedianMicros(3, [&] {
      auto r = cfdprop::PropagationCoverSPC(catalog, view, minimized, hoisted);
      if (r.ok()) sigma_v_size = r->sigma_v_size;
    }));
    sigma_v.push_back(static_cast<double>(sigma_v_size));
    const size_t calls = 50;
    fp_us.push_back(MedianMicros(3, [&] {
      for (size_t i = 0; i < calls; ++i) {
        (void)cfdprop::FingerprintRequestPair(catalog, view, 0);
      }
    }) / calls);
    const cfdprop::SPCView& served_view =
        ladder.views.at(ViewName(config, v)).disjuncts[0];
    (void)engine.Propagate(served_view, 0);  // warm the line
    hit_us.push_back(MedianMicros(5, [&] { (void)engine.Propagate(served_view, 0); }));
    std::vector<double> misses;
    for (int r = 0; r < 3; ++r) {
      engine.ClearCache();
      const auto t0 = Clock::now();
      (void)engine.Propagate(served_view, 0);
      misses.push_back(MicrosBetween(t0, Clock::now()));
    }
    miss_us.push_back(Median(misses));
  }
  Add(metrics, "cover.spc_us", Median(spc_us), "us", spc_us.size());
  Add(metrics, "cover.sigma_v_cfds", Mean(sigma_v), "cfds", sigma_v.size());
  Add(metrics, "engine.fingerprint_us", Median(fp_us), "us", fp_us.size());
  Add(metrics, "engine.hit_us", Median(hit_us), "us", hit_us.size());
  Add(metrics, "engine.miss_us", Median(miss_us), "us", miss_us.size());

  // Union assembly over U_i = V_i ∪ V_{i+1}, per-disjunct covers given.
  std::vector<double> union_us;
  for (size_t i = 0; i + 1 < probe_views && i < 8; ++i) {
    cfdprop::SPCUView u;
    u.disjuncts.push_back(spec.views.at(ViewName(config, i)).disjuncts[0]);
    u.disjuncts.push_back(spec.views.at(ViewName(config, i + 1)).disjuncts[0]);
    std::vector<cfdprop::PropCoverResult> parts;
    for (const auto& d : u.disjuncts) {
      CFDPROP_ASSIGN_OR_RETURN(
          cfdprop::PropCoverResult part,
          cfdprop::PropagationCoverSPC(catalog, d, minimized, hoisted));
      parts.push_back(std::move(part));
    }
    union_us.push_back(MedianMicros(3, [&] {
      (void)cfdprop::AssembleUnionCover(catalog, u, minimized, parts, hoisted);
    }));
  }
  Add(metrics, "cover.union_us", Median(union_us), "us", union_us.size());

  // The wire codec on the service depth's replies.
  std::vector<double> encode_us, decode_us;
  double reply_bytes = 0, reply_covers = 0;
  for (const cfdprop::BatchResult& reply : service_replies) {
    const std::vector<cfdprop::BatchResult> one = {reply};
    std::string payload;
    encode_us.push_back(MedianMicros(5, [&] {
      payload = net::EncodeSubmitBatchReply(Status::OK(), one, local_pool);
    }));
    decode_us.push_back(MedianMicros(5, [&] {
      (void)net::DecodeSubmitBatchReply(payload, scratch.pool());
    }));
    reply_bytes += static_cast<double>(payload.size());
    reply_covers += static_cast<double>(reply.results.size());
  }
  Add(metrics, "net.encode_us", Median(encode_us), "us", encode_us.size());
  Add(metrics, "net.decode_us", Median(decode_us), "us", decode_us.size());
  Add(metrics, "net.reply_bytes_per_cover",
      reply_covers > 0 ? reply_bytes / reply_covers : 0, "bytes",
      static_cast<uint64_t>(reply_covers));
  return Status::OK();
}

/// Moves of the ladder's wire tenant between the two servers through the
/// router's migration steps, with the snapshot fetch and the warm open
/// timed apart.
void MeasureMoves(const WorkloadConfig& config, uint64_t seed, Ladder& ladder,
                  Metrics* metrics, OpCounts* ops) {
  std::vector<double> fetch_us, open_us;
  size_t at = 0;
  for (int m = 0; m < 4; ++m) {
    const size_t to = 1 - at;
    cfdprop::Spec target_spec = BuildSpec(config, seed, 0);
    ++ops->migrations;
    Status moved = ladder.router->BeginMigration(ladder.wire);
    if (moved.ok()) {
      const auto t0 = Clock::now();
      auto snapshot = ladder.router->FetchSnapshotFrom(at, ladder.wire);
      fetch_us.push_back(MicrosBetween(t0, Clock::now()));
      moved = snapshot.status();
      if (moved.ok()) {
        const auto t1 = Clock::now();
        moved = ladder.servers[to]
                    ->OpenParsedSpecFromSnapshot(ladder.wire,
                                                 std::move(target_spec),
                                                 *snapshot)
                    .status();
        open_us.push_back(MicrosBetween(t1, Clock::now()));
      }
      if (moved.ok()) moved = ladder.router->CompleteMigration(ladder.wire, to);
      if (moved.ok()) moved = ladder.router->DropCatalogOn(at, ladder.wire);
      if (!moved.ok()) ladder.router->AbortMigration(ladder.wire);
    }
    if (!moved.ok()) {
      ++ops->migrations_failed;
      std::fprintf(stderr, "ladder move failed: %s\n", moved.ToString().c_str());
      continue;
    }
    at = to;
  }
  Add(metrics, "router.snapshot_fetch_us", Median(fetch_us), "us",
      fetch_us.size());
  Add(metrics, "router.warm_open_us", Median(open_us), "us", open_us.size());
}

}  // namespace

Status RunTraced(const WorkloadConfig& config, uint64_t seed, double seconds,
                 const std::vector<std::vector<Batch>>& streams,
                 const std::vector<CFD>& churn_cfds, Metrics* metrics,
                 OpCounts* ops, ServedCovers* served,
                 std::vector<LadderSpan>* spans) {
  CFDPROP_RETURN_NOT_OK(MeasureLoop(config, seed, seconds, streams, churn_cfds,
                                    metrics, ops, served));
  obs::ObsOptions topts;
  topts.trace_sample_shift = 0;
  topts.trace_ring_capacity = 1 << 16;
  obs::Tracer tracer(topts);  // declared before the ladder: outlives it
  CFDPROP_ASSIGN_OR_RETURN(std::unique_ptr<Ladder> ladder,
                           BuildLadder(config, seed));
  std::vector<cfdprop::BatchResult> replies;
  CFDPROP_RETURN_NOT_OK(MeasureLadder(config, *ladder, &tracer, streams,
                                      metrics, ops, served, &replies, spans));
  CFDPROP_RETURN_NOT_OK(MeasureCalls(config, seed, *ladder, replies, metrics));
  MeasureMoves(config, seed, *ladder, metrics, ops);
  return Status::OK();
}

}  // namespace servebench
