// servebench: the cover-serving benchmark.
//
//   servebench --workload cold-inproc|hot-tcp|churn-routed --seed N
//              --seconds S --trace 0|1 [--smoke] [--git-sha SHA]
//              [--spans-out FILE]
//
// --trace 0 runs the closed-loop timed phase untraced and reports the
// end-to-end metrics; --trace 1 runs the layer ladder and probes and
// reports the per-layer metrics. Both check every distinct cover served
// with the oracle (after a self-test that corrupted covers are caught)
// and print, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero when the oracle finds a wrong cover.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "servebench/src/common.h"
#include "servebench/src/oracle.h"
#include "servebench/src/serving.h"
#include "servebench/src/traced.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define SERVEBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define SERVEBENCH_COMPILER "g++ " __VERSION__
#else
#define SERVEBENCH_COMPILER "unknown"
#endif

namespace servebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string spans_out;  // traced runs: where the ladder's spans go
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

const char* PathName(Path path) {
  switch (path) {
    case Path::kInproc:
      return "inproc";
    case Path::kTcp:
      return "tcp";
    case Path::kRouted:
      return "routed";
  }
  return "?";
}

void PrintMakeup(const Args& args, const WorkloadConfig& c) {
  std::printf("# servebench workload=%s trace=%d seed=%llu seconds=%s%s\n",
              c.name.c_str(), args.trace ? 1 : 0,
              static_cast<unsigned long long>(args.seed),
              FormatNumber(args.seconds).c_str(), args.smoke ? " smoke" : "");
  std::printf("# nproc=%u compiler=\"%s\" build=%s git=%s\n",
              std::thread::hardware_concurrency(), SERVEBENCH_COMPILER,
              SERVEBENCH_BUILD_TYPE, args.git_sha.c_str());
  std::printf(
      "# path=%s tenants=%zu |Σ|=%zu views=%zu (unions %zu) |Y|=%zu |F|=%zu "
      "|Ec|=%zu cache/tenant=%zu batch=%zu clients=%zu dispatchers=%zu "
      "shards=%zu churn_pairs=%zu moves/tenant=%zu\n",
      PathName(c.path), c.tenants, c.sigma_size, NumViews(c), c.union_views,
      kGen.projection, kGen.selections, kGen.atoms, c.cache_per_tenant,
      c.batch_size, c.clients, c.dispatchers, c.shards, c.churn_pairs,
      c.moves_per_tenant);
}

Metric Quantiled(const std::vector<double>& samples, double q,
                 const char* unit) {
  return Metric{Quantile(samples, q), unit, samples.size()};
}

/// The timed phase untraced: set-ups, the closed loop, the moves after it
/// (churn-routed) and the end-to-end metrics.
cfdprop::Status RunUntraced(const Args& args, const WorkloadConfig& config,
                            const std::vector<std::vector<Batch>>& streams,
                            const std::vector<cfdprop::CFD>& churn_cfds,
                            Metrics* out, OpCounts* ops_out,
                            ServedCovers* served) {
  Metrics& metrics = *out;
  OpCounts& ops = *ops_out;
  // Set-up and loop times are taken net of host steal: each is scaled by
  // the share of busy CPU time the host left the machine over it.
  std::vector<double> setup_s, setup_raw_s;
  std::unique_ptr<Rig> rig;
  for (size_t r = 0; r < config.setup_repeats; ++r) {
    rig.reset();  // tear the previous set-up down first
    double call_s = 0;
    const HostSample h0 = ReadHost();
    CFDPROP_ASSIGN_OR_RETURN(rig, StandUp(config, args.seed, streams, &call_s));
    setup_raw_s.push_back(call_s);
    setup_s.push_back(call_s * (1 - StolenShare(h0, ReadHost())));
  }
  LoopResult loop =
      RunLoop(*rig, streams, churn_cfds, args.seconds, config.churn_pairs);
  *served = std::move(loop.served);
  ops = loop.ops;
  const std::vector<double> move_ms = RunMoves(*rig, args.seed, &ops);
  rig.reset();

  const double covers = static_cast<double>(loop.covers);
  const double phase_rate = covers / loop.wall_s;
  const double net_rate = covers / (loop.wall_s * (1 - loop.stolen));
  // Each batch is scaled by its own second's share (the phase's for the
  // last, partial second).
  std::vector<double> net_batch_us;
  for (size_t i = 0; i < loop.batch_us.size(); ++i) {
    const size_t w = static_cast<size_t>(loop.batch_end_s[i]);
    const double stolen =
        w < loop.window_stolen.size() ? loop.window_stolen[w] : loop.stolen;
    net_batch_us.push_back(loop.batch_us[i] * (1 - stolen));
  }

  std::printf("# as measured: covers_per_s=%s batch_p50_us=%s (n=%zu) "
              "edge.batch_p99_us=%s (n=%zu) batch_p90_us=%s hit_share=%s "
              "wall_s=%s\n",
              FormatNumber(phase_rate).c_str(),
              FormatNumber(Quantile(loop.batch_us, 0.5)).c_str(),
              loop.batch_us.size(),
              FormatNumber(Quantile(loop.batch_us, 0.99)).c_str(),
              loop.batch_us.size(),
              FormatNumber(Quantile(loop.batch_us, 0.90)).c_str(),
              FormatNumber(covers > 0 ? loop.hits / covers : 0).c_str(),
              FormatNumber(loop.wall_s).c_str());
  std::printf("# stolen share of busy CPU time over the phase: %s\n",
              FormatNumber(loop.stolen).c_str());
  std::printf("# oracle bookkeeping in the loop: %llu of %llu covers "
              "fingerprinted\n",
              static_cast<unsigned long long>(loop.fingerprinted),
              static_cast<unsigned long long>(loop.covers));
  std::printf("# set-ups as measured (s):");
  for (double s : setup_raw_s) std::printf(" %s", FormatNumber(s).c_str());
  std::printf("\n# windows (1 s) covers/s:");
  for (double r : loop.window_rate) std::printf(" %.0f", r);
  std::printf("\n# windows (1 s) host steal %%:");
  for (double s : loop.window_steal) std::printf(" %.1f", 100 * s);
  std::printf("\n# windows (1 s) stolen share of busy CPU %%:");
  for (double s : loop.window_stolen) std::printf(" %.1f", 100 * s);
  std::printf("\n");
  if (config.churn_pairs > 0) {
    // Write-path latencies: printed, not gated (see README).
    std::printf("# mutation_p50_us=%s us (n=%zu) mutation_p99_us=%s "
                "migrate_p50_ms=%s ms (n=%zu)\n",
                FormatNumber(Quantile(loop.mutation_us, 0.5)).c_str(),
                loop.mutation_us.size(),
                FormatNumber(Quantile(loop.mutation_us, 0.99)).c_str(),
                FormatNumber(Quantile(move_ms, 0.5)).c_str(), move_ms.size());
  }
  metrics.push_back({"covers_per_s", {net_rate, "covers/s", loop.covers}});
  metrics.push_back({"batch_p50_us", Quantiled(net_batch_us, 0.5, "us")});
  metrics.push_back({"cpu_us_per_cover",
                     {1e6 * loop.cpu_s / covers, "us", loop.covers}});
  metrics.push_back({"setup_s", Quantiled(setup_s, 0.5, "s")});
  metrics.push_back({"peak_rss_mb", {PeakRssMiB(), "MiB", 1}});
  return cfdprop::Status::OK();
}

int Run(const Args& args) {
  WorkloadConfig config;
  if (!LookupWorkload(args.workload, args.smoke, &config)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool churn = config.churn_pairs > 0;
  const HostSample host0 = ReadHost();
  PrintMakeup(args, config);

  cfdprop::Status selftest = OracleSelfTest(config, args.seed);
  std::printf("# oracle self-test: %s\n",
              selftest.ok() ? "every corrupted cover caught"
                            : selftest.ToString().c_str());
  if (!selftest.ok()) return 1;

  // Inputs: request streams and churn CFDs (not part of set-up time).
  const auto streams = BuildStreams(config, args.seed);
  std::vector<cfdprop::CFD> churn_cfds;
  for (size_t t = 0; t < config.tenants; ++t) {
    cfdprop::Spec spec = BuildSpec(config, args.seed, t);
    churn_cfds.push_back(ChurnCfd(config, spec));
  }

  Metrics metrics;
  OpCounts ops;
  ServedCovers served;
  if (args.trace) {
    std::vector<LadderSpan> spans;
    cfdprop::Status traced = RunTraced(config, args.seed, args.seconds, streams,
                                       churn_cfds, &metrics, &ops, &served,
                                       &spans);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.ToString().c_str());
      return 1;
    }
    if (!args.spans_out.empty()) {
      FILE* out = std::fopen(args.spans_out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
        return 1;
      }
      std::fprintf(out, "depth\tbatch\trep\tstart_us\tdur_us\n");
      for (const LadderSpan& s : spans) {
        std::fprintf(out, "%s\t%zu\t%zu\t%.3f\t%.3f\n", s.depth, s.batch,
                     s.rep, s.start_us, s.dur_us);
      }
      std::fclose(out);
      std::printf("# ladder spans: %zu written to %s\n", spans.size(),
                  args.spans_out.c_str());
    }
  } else {
    cfdprop::Status untraced = RunUntraced(args, config, streams, churn_cfds,
                                           &metrics, &ops, &served);
    if (!untraced.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", untraced.ToString().c_str());
      return 1;
    }
  }

  const OracleReport oracle = RunOracle(config, args.seed, churn, served);
  std::printf(
      "# oracle: keys=%llu straddled=%llu raw_one_shot=%llu semantic=%llu "
      "covers/%llu members differing_share=%s failures=%zu\n",
      static_cast<unsigned long long>(oracle.keys),
      static_cast<unsigned long long>(oracle.straddled_keys),
      static_cast<unsigned long long>(oracle.raw_one_shot),
      static_cast<unsigned long long>(oracle.semantic_covers),
      static_cast<unsigned long long>(oracle.semantic_members),
      FormatNumber(oracle.differing_share).c_str(), oracle.failures.size());
  for (size_t i = 0; i < oracle.failures.size() && i < 10; ++i) {
    std::printf("# oracle failure: %s\n", oracle.failures[i].c_str());
  }

  const HostSample host1 = ReadHost();
  const double dtotal = static_cast<double>(host1.total - host0.total);
  std::printf("# host: steal_share=%s load1_start=%s load1_end=%s\n",
              FormatNumber(dtotal > 0 ? (host1.steal - host0.steal) / dtotal
                                      : 0)
                  .c_str(),
              FormatNumber(host0.load1).c_str(),
              FormatNumber(host1.load1).c_str());
  std::printf(
      "# ops: batches=%llu/%llu failed requests=%llu/%llu failed "
      "mutations=%llu/%llu failed migrations=%llu/%llu failed\n",
      static_cast<unsigned long long>(ops.batches),
      static_cast<unsigned long long>(ops.batches_failed),
      static_cast<unsigned long long>(ops.requests),
      static_cast<unsigned long long>(ops.requests_failed),
      static_cast<unsigned long long>(ops.mutations),
      static_cast<unsigned long long>(ops.mutations_failed),
      static_cast<unsigned long long>(ops.migrations),
      static_cast<unsigned long long>(ops.migrations_failed));
  for (const auto& [name, m] : metrics) {
    std::printf("# %-34s %16s %-9s n=%llu\n", name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }

  const bool correct = oracle.failures.empty();
  const uint64_t attempted = ops.batches + ops.mutations + ops.migrations;
  const uint64_t failed =
      ops.batches_failed + ops.mutations_failed + ops.migrations_failed;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            FormatNumber(metrics[i].second.value) + ", \"unit\": \"" +
            metrics[i].second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--git-sha SHA] [--spans-out FILE]\n");
    return 2;
  }
  return servebench::Run(args);
}
