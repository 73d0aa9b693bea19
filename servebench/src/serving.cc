#include "servebench/src/serving.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_map>


namespace servebench {

using cfdprop::CatalogService;
using cfdprop::CFD;
using cfdprop::Result;
using cfdprop::Status;
using cfdprop::TenantHandle;
namespace net = cfdprop::net;

net::CoverBackend& Rig::BackendFor(size_t client) {
  switch (config.path) {
    case Path::kInproc:
      return *inproc;
    case Path::kTcp:
      return *remotes[client];
    case Path::kRouted:
      break;
  }
  return *router;
}

TenantHandle Rig::Handle(size_t tenant) {
  auto handle = ServiceOf(tenant).ResolveCatalog(TenantName(tenant));
  return handle.ok() ? std::move(handle).value() : nullptr;
}

namespace {

net::CoverClientOptions ClientOptions(uint16_t port) {
  net::CoverClientOptions options;
  options.port = port;
  options.connect_timeout = std::chrono::milliseconds(10000);
  return options;
}

/// Submits `names` in batch_size chunks through `backend`; fails on any
/// error.
Status WarmUp(net::CoverBackend& backend, const std::string& tenant,
              const std::vector<std::string>& names, size_t batch_size,
              cfdprop::ValuePool& pool) {
  for (size_t i = 0; i < names.size(); i += batch_size) {
    std::vector<std::string> chunk(
        names.begin() + static_cast<std::ptrdiff_t>(i),
        names.begin() +
            static_cast<std::ptrdiff_t>(std::min(names.size(), i + batch_size)));
    CFDPROP_ASSIGN_OR_RETURN(cfdprop::BatchResult reply,
                             backend.SubmitBatch(tenant, chunk, pool));
    CFDPROP_RETURN_NOT_OK(reply.status);
    for (const auto& r : reply.results) CFDPROP_RETURN_NOT_OK(r.status());
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Rig>> StandUp(
    const WorkloadConfig& config, uint64_t seed,
    const std::vector<std::vector<Batch>>& streams, double* call_s) {
  auto rig = std::make_unique<Rig>(config);
  double spent = 0;
  auto timed = [&spent](auto&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    spent += SecondsBetween(t0, Clock::now());
    return result;
  };

  cfdprop::ServiceOptions options;
  options.dispatcher_threads = config.dispatchers;
  options.global_cache_budget = config.tenants * config.cache_per_tenant;
  options.engine.num_threads = 1;  // batches run on the dispatcher
  for (size_t s = 0; s < config.shards; ++s) {
    rig->services.push_back(
        timed([&] { return std::make_unique<CatalogService>(options); }));
  }
  if (config.path == Path::kInproc) {
    rig->inproc = std::make_unique<net::InProcBackend>(*rig->services[0]);
  } else {
    for (auto& service : rig->services) {
      auto server = std::make_unique<net::CoverServer>(*service);
      CFDPROP_RETURN_NOT_OK(timed([&] { return server->Start(); }));
      rig->servers.push_back(std::move(server));
    }
  }
  if (config.path == Path::kTcp) {
    for (size_t c = 0; c < config.clients; ++c) {
      rig->remotes.push_back(std::make_unique<net::RemoteBackend>(
          ClientOptions(rig->servers[0]->port())));
      CFDPROP_RETURN_NOT_OK(timed([&] { return rig->remotes.back()->Connect(); }));
    }
  }
  if (config.path == Path::kRouted) {
    net::CoverRouterOptions ropts;
    for (auto& server : rig->servers) {
      ropts.shards.push_back(ClientOptions(server->port()));
    }
    rig->router = timed(
        [&] { return std::make_unique<net::CoverRouter>(std::move(ropts)); });
  }

  // Tenant opens (Σ registration, MinCover) on the owning shard: the
  // router's ring on the routed path, service 0 otherwise. The specs
  // exist only programmatically, so they open in process.
  for (size_t t = 0; t < config.tenants; ++t) {
    const std::string name = TenantName(t);
    rig->shard_of.push_back(rig->router ? rig->router->ShardFor(name) : 0);
    cfdprop::Spec spec = BuildSpec(config, seed, t);
    auto opened = timed([&] {
      return rig->inproc
                 ? rig->inproc->OpenParsedSpec(name, std::move(spec))
                 : rig->servers[rig->shard_of[t]]->OpenParsedSpec(
                       name, std::move(spec));
    });
    CFDPROP_RETURN_NOT_OK(opened.status());
  }

  // Warm-up through the path under test: a hot set that fits in the
  // cache is served once in full; a working set that does not fit gets
  // a few batches per client, enough to warm code, not the cache.
  cfdprop::Catalog scratch;
  Status warmed = timed([&]() -> Status {
    if (NumViews(config) <= config.cache_per_tenant) {
      std::vector<std::string> names;
      for (size_t v = 0; v < NumViews(config); ++v) {
        names.push_back(ViewName(config, v));
      }
      for (size_t t = 0; t < config.tenants; ++t) {
        CFDPROP_RETURN_NOT_OK(WarmUp(rig->BackendFor(0), TenantName(t), names,
                                     config.batch_size, scratch.pool()));
      }
      return Status::OK();
    }
    for (size_t c = 0; c < config.clients; ++c) {
      for (size_t b = 0; b < std::min<size_t>(4, streams[c].size()); ++b) {
        const Batch& batch = streams[c][b];
        CFDPROP_RETURN_NOT_OK(WarmUp(rig->BackendFor(c),
                                     TenantName(batch.tenant), batch.names,
                                     config.batch_size, scratch.pool()));
      }
    }
    return Status::OK();
  });
  CFDPROP_RETURN_NOT_OK(warmed);
  *call_s = spent;
  return rig;
}

LoopResult RunLoop(Rig& rig, const std::vector<std::vector<Batch>>& streams,
                   const std::vector<CFD>& churn_cfds, double seconds,
                   size_t churn_pairs) {
  const WorkloadConfig& config = rig.config;
  const bool churn = churn_pairs > 0;
  struct Client {
    std::vector<double> batch_us;
    std::vector<double> batch_end_s;
    std::vector<uint32_t> batch_covers;
    Clock::time_point last{};
    uint64_t covers = 0, hits = 0, fingerprinted = 0;
    OpCounts ops;
    std::unordered_map<uint64_t, uint64_t> first;
    std::vector<std::pair<uint64_t, uint64_t>> conflicts;
  };
  const size_t views = NumViews(config);
  std::vector<Client> clients(config.clients);
  // Per-tenant mutation sequence: odd while a mutation is in flight, so a
  // request that reads the same even value before submit and after reply
  // saw exactly one Σ state.
  std::unique_ptr<std::atomic<uint64_t>[]> seq(
      new std::atomic<uint64_t>[config.tenants]);
  for (size_t t = 0; t < config.tenants; ++t) seq[t] = 0;
  // The in-process path serves covers out of each tenant's own pool.
  std::vector<TenantHandle> pins;
  for (size_t t = 0; t < config.tenants; ++t) pins.push_back(rig.Handle(t));
  std::vector<std::string> names;
  for (size_t t = 0; t < config.tenants; ++t) names.push_back(TenantName(t));

  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  auto client_main = [&](size_t c) {
    Client& st = clients[c];
    st.batch_us.reserve(1 << 16);
    st.batch_end_s.reserve(1 << 16);
    st.batch_covers.reserve(1 << 16);
    // Σ period in which each (tenant, view) was last fingerprinted.
    std::vector<uint64_t> checked(config.tenants * views, ~uint64_t{0});
    cfdprop::Catalog scratch;
    net::CoverBackend& backend = rig.BackendFor(c);
    const std::vector<Batch>& stream = streams[c];
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      const Batch& b = stream[i % stream.size()];
      const uint64_t s0 = seq[b.tenant].load();
      const auto t0 = Clock::now();
      auto reply = backend.SubmitBatch(names[b.tenant], b.names, scratch.pool());
      const auto t1 = Clock::now();
      const uint64_t s1 = seq[b.tenant].load();
      st.batch_us.push_back(MicrosBetween(t0, t1));
      st.batch_end_s.push_back(SecondsBetween(start, t1));
      st.batch_covers.push_back(0);
      st.last = t1;
      ++st.ops.batches;
      st.ops.requests += b.names.size();
      if (!reply.ok() || !reply->status.ok()) {
        ++st.ops.batches_failed;
        st.ops.requests_failed += b.names.size();
        continue;
      }
      unsigned state = kBase;
      if (churn) {
        state = s0 != s1 || s0 % 2 != 0 ? kEither
                : (s0 / 2) % 2 != 0     ? kChurned
                                        : kBase;
      }
      const cfdprop::ValuePool& pool =
          config.path == Path::kInproc
              ? pins[b.tenant]->engine().catalog().pool()
              : scratch.pool();
      const bool sampled = i % kFingerprintEvery == 0 || state == kEither;
      bool batch_failed = false;
      for (size_t k = 0; k < reply->results.size(); ++k) {
        const auto& r = reply->results[k];
        if (!r.ok() || r->cover == nullptr) {
          ++st.ops.requests_failed;
          batch_failed = true;
          continue;
        }
        ++st.covers;
        ++st.batch_covers.back();
        if (r->cache_hit) ++st.hits;
        uint64_t& period = checked[b.tenant * views + b.views[k]];
        if (!sampled && period == s0) continue;
        period = s0;
        ++st.fingerprinted;
        const uint64_t fp = cfdprop::FingerprintSigmaSet(pool, r->cover->cover);
        const uint64_t key = PackKey(b.tenant, b.views[k], state);
        auto [it, inserted] = st.first.emplace(key, fp);
        if (!inserted && it->second != fp) st.conflicts.emplace_back(key, fp);
      }
      if (batch_failed) ++st.ops.batches_failed;
    }
  };

  LoopResult result;
  auto churner_main = [&] {
    const size_t mutations = 2 * churn_pairs;
    for (size_t k = 0; k < mutations; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          seconds * (static_cast<double>(k) + 0.5) /
                          static_cast<double>(mutations))));
      const size_t t = (k / 2) % config.tenants;
      TenantHandle handle = rig.Handle(t);
      ++result.ops.mutations;
      if (handle == nullptr) {
        ++result.ops.mutations_failed;
        continue;
      }
      seq[t].fetch_add(1);
      const auto t0 = Clock::now();
      Status s = k % 2 == 0 ? handle->engine().AddCfd(0, churn_cfds[t])
                            : handle->engine().RetractCfd(0, churn_cfds[t]);
      const auto t1 = Clock::now();
      seq[t].fetch_add(1);
      result.mutation_us.push_back(MicrosBetween(t0, t1));
      if (!s.ok()) ++result.ops.mutations_failed;
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back(client_main, c);
  }
  // Host steal per one-second window of the phase, beside the windows'
  // throughput: the two are what separate host noise from a change.
  std::atomic<bool> stop_monitor{false};
  HostSample phase0, phase1;
  std::thread monitor([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    phase0 = ReadHost();
    HostSample prev = phase0;
    for (int k = 1; !stop_monitor.load(); ++k) {
      std::this_thread::sleep_until(start + std::chrono::seconds(k));
      if (stop_monitor.load()) break;
      const HostSample cur = ReadHost();
      result.window_steal.push_back(
          static_cast<double>(cur.steal - prev.steal) /
          std::max<double>(1, static_cast<double>(cur.total - prev.total)));
      result.window_stolen.push_back(StolenShare(prev, cur));
      prev = cur;
    }
    phase1 = ReadHost();
  });
  const double cpu0 = ProcessCpuSeconds();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  std::thread churner;
  if (churn) churner = std::thread(churner_main);
  for (auto& th : threads) th.join();
  if (churner.joinable()) churner.join();
  stop_monitor = true;
  monitor.join();
  result.cpu_s = ProcessCpuSeconds() - cpu0;

  Clock::time_point last = start;
  for (Client& st : clients) {
    last = std::max(last, st.last);
    result.batch_us.insert(result.batch_us.end(), st.batch_us.begin(),
                           st.batch_us.end());
    result.batch_end_s.insert(result.batch_end_s.end(),
                              st.batch_end_s.begin(), st.batch_end_s.end());
    result.batch_covers.insert(result.batch_covers.end(),
                               st.batch_covers.begin(), st.batch_covers.end());
    result.covers += st.covers;
    result.fingerprinted += st.fingerprinted;
    result.hits += st.hits;
    result.ops.batches += st.ops.batches;
    result.ops.batches_failed += st.ops.batches_failed;
    result.ops.requests += st.ops.requests;
    result.ops.requests_failed += st.ops.requests_failed;
    for (const auto& [key, fp] : st.first) result.served[key].insert(fp);
    for (const auto& [key, fp] : st.conflicts) result.served[key].insert(fp);
  }
  result.wall_s = SecondsBetween(start, last);
  result.stolen = StolenShare(phase0, phase1);
  // Whole one-second windows only.
  const size_t windows = static_cast<size_t>(result.wall_s);
  result.window_rate.assign(windows, 0);
  for (size_t i = 0; i < result.batch_end_s.size(); ++i) {
    const size_t w = static_cast<size_t>(result.batch_end_s[i]);
    if (w < windows) result.window_rate[w] += result.batch_covers[i];
  }
  result.window_steal.resize(std::min(result.window_steal.size(), windows));
  result.window_stolen.resize(std::min(result.window_stolen.size(), windows));
  return result;
}

EngineTotals SumEngineStats(Rig& rig) {
  EngineTotals totals;
  for (auto& service : rig.services) {
    for (const auto& tenant : service->Stats().tenants) {
      totals.hits += tenant.engine.cache.hits;
      totals.misses += tenant.engine.cache.misses;
      totals.insertions += tenant.engine.cache.insertions;
      totals.invalidations += tenant.engine.cache.invalidations;
      totals.mutations += tenant.engine.sigma_mutations;
    }
  }
  return totals;
}

namespace {

/// One move of `tenant` from shard `src` to `dst` through the router's
/// migration steps.
Status MoveOnce(Rig& rig, size_t tenant, size_t src, size_t dst,
                cfdprop::Spec spec) {
  const std::string name = TenantName(tenant);
  net::CoverRouter& router = *rig.router;
  CFDPROP_RETURN_NOT_OK(router.BeginMigration(name));
  auto snapshot = router.FetchSnapshotFrom(src, name);
  Status opened = snapshot.status();
  if (opened.ok()) {
    opened = rig.servers[dst]
                 ->OpenParsedSpecFromSnapshot(name, std::move(spec), *snapshot)
                 .status();
  }
  if (!opened.ok()) {
    router.AbortMigration(name);
    return opened;
  }
  CFDPROP_RETURN_NOT_OK(router.CompleteMigration(name, dst));
  return router.DropCatalogOn(src, name);
}

}  // namespace

std::vector<double> RunMoves(Rig& rig, uint64_t seed, OpCounts* ops) {
  std::vector<double> latencies;
  for (size_t round = 0; round < rig.config.moves_per_tenant; ++round) {
    for (size_t t = 0; t < rig.config.tenants; ++t) {
      const size_t src = rig.shard_of[t];
      const size_t dst = (src + 1) % rig.config.shards;
      cfdprop::Spec spec = BuildSpec(rig.config, seed, t);  // input, untimed
      ++ops->migrations;
      const auto t0 = Clock::now();
      Status moved = MoveOnce(rig, t, src, dst, std::move(spec));
      const double ms = MicrosBetween(t0, Clock::now()) / 1000.0;
      if (!moved.ok()) {
        ++ops->migrations_failed;
        std::fprintf(stderr, "move of %s failed: %s\n", TenantName(t).c_str(),
                     moved.ToString().c_str());
        continue;
      }
      rig.shard_of[t] = dst;
      latencies.push_back(ms);
    }
  }
  return latencies;
}

}  // namespace servebench
