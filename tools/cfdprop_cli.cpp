// cfdprop_cli — the command-line front end of the library.
//
// Reads a specification file (see src/parser/parser.h for the syntax)
// and runs the paper's analyses:
//
//   cfdprop_cli SPEC                 run every analysis below
//   cfdprop_cli SPEC --check        decide Sigma |=V phi for each view
//                                    CFD declared in the spec
//   cfdprop_cli SPEC --cover        print a minimal propagation cover
//                                    per declared view (PropCFD_SPC)
//   cfdprop_cli SPEC --emptiness    report views that are always empty
//   cfdprop_cli SPEC --validate     evaluate views on the insert data
//                                    and report CFD violations
//
//   cfdprop_cli batch SPEC [--threads N] [--repeat K] [--cache N]
//               [--snapshot-in F] [--snapshot-out F]
//                                    serve every declared view (SPC and
//                                    SPCU/union) through the propagation
//                                    engine: registered Sigma, fingerprint
//                                    cache, worker pool. --repeat replays
//                                    the request list K times to exercise
//                                    the cache; --cache sets its capacity.
//                                    add-cfd/drop-cfd statements in the
//                                    spec are applied after the base
//                                    rounds, re-serving the round after
//                                    each mutation (selective cache
//                                    invalidation, see engine stats).
//                                    --snapshot-in warm-starts the cover
//                                    cache from a snapshot file before
//                                    serving (a mismatched/corrupt file
//                                    is rejected and the run proceeds
//                                    cold); --snapshot-out spills the
//                                    cache after the base rounds — the
//                                    state a restart wants back, before
//                                    the churn script mutates Sigma.
//                                    A `serve V1, V2, ...` statement in
//                                    the spec overrides which views make
//                                    up a serving round.
//
//   cfdprop_cli listen [--host H] [--port N] [--tenant NAME=SPEC ...]
//               [--threads N] [--dispatchers N] [--budget N]
//               [--max-inflight N] [--max-queue N] [--io-timeout MS]
//               [--snapshot-dir DIR]
//               [--interval-ms N] [--dirty N] [--metrics-dump PATH]
//               [--trace-dump PATH] [--trace-shift K]
//               [--slow-threshold-us N] [--trace-seed N]
//                                    network server mode: a CoverServer
//                                    (src/net/) in front of a
//                                    CatalogService. Tenants given on
//                                    the command line are preloaded;
//                                    clients can open more by shipping
//                                    spec text. Runs until a client
//                                    sends shutdown. --max-inflight/
//                                    --max-queue set the per-tenant
//                                    admission caps (0 = unlimited);
//                                    --io-timeout arms per-connection
//                                    socket deadlines in milliseconds
//                                    (0 = blocking forever) so a hung
//                                    peer costs one deadline window, not
//                                    a wedged connection thread;
//                                    --metrics-dump writes the final
//                                    metrics exposition (src/obs) to a
//                                    file on shutdown. --trace-dump
//                                    installs the process tracer
//                                    (src/obs/trace.h) and writes the
//                                    stitched span trees to a file on
//                                    shutdown — sampling everything
//                                    unless --trace-shift K narrows it
//                                    to 1 in 2^K; --slow-threshold-us
//                                    arms slow-request capture (the
//                                    slow trees print on shutdown,
//                                    sampled or not); --trace-seed
//                                    makes the span ids — and thus the
//                                    dump bytes — deterministic.
//
//   cfdprop_cli drive --backend inproc|HOST:PORT [--backend HOST:PORT ...]
//               [--tenant NAME=SPEC ...] [--rounds K] [--burst N]
//               [--quiet] [--stats] [--metrics] [--metrics-dump PATH]
//               [--trace]
//               in process:  [--threads N] [--dispatchers N] [--budget N]
//                            [--snapshot-dir DIR] [--interval-ms N]
//                            [--dirty N] [--no-churn]
//               remote:      [--connect-timeout MS] [--io-timeout MS]
//                            [--no-open] [--shutdown]
//               2+ backends: [--vnodes N] [--migrate TENANT[=SHARD] ...]
//                                    serving mode, written against the
//                                    one serving surface, CoverBackend
//                                    (src/net/cover_backend.h). The
//                                    backend follows --backend: `inproc`
//                                    builds a CatalogService in this
//                                    process, one HOST:PORT talks to one
//                                    `listen` server, several HOST:PORTs
//                                    consistent-hash tenants across them
//                                    through a CoverRouter. Every
//                                    backend prints covers byte-
//                                    identically, so scripts can diff
//                                    in-process against network serving
//                                    and a routed cluster against one fat
//                                    server.
//
//                                    Each --tenant opens one spec as a
//                                    named catalog (the spec text travels
//                                    to a remote backend; --no-open
//                                    assumes it is open already) and its
//                                    serving round is served --rounds
//                                    times, first-round covers printed.
//                                    --burst N then pipelines N copies of
//                                    the round in one call, whose
//                                    admission is decided atomically;
//                                    --stats prints the backend's service
//                                    stats (summed over shards when
//                                    routed); --metrics prints its
//                                    Prometheus-style exposition
//                                    (shard="N" labels when routed) and
//                                    --metrics-dump writes it to a file;
//                                    --trace samples every request at
//                                    this edge, fetches each server's
//                                    span rings afterwards and prints
//                                    the stitched span trees; --shutdown
//                                    stops every remote server.
//
//                                    In process, --budget is the global
//                                    cover-cache entry budget split
//                                    across tenants; --snapshot-dir
//                                    enables warm starts from (and
//                                    background spills to) per-tenant
//                                    snapshot files, with the policy
//                                    knobs --interval-ms/--dirty; each
//                                    tenant's add-cfd/drop-cfd script
//                                    then replays while every tenant
//                                    keeps serving (--no-churn skips it).
//                                    The wire has no mutation frame, so
//                                    these flags are refused on remote
//                                    backends. With 2+ backends,
//                                    --migrate drains, snapshots and
//                                    moves a tenant to SHARD (default:
//                                    the next shard clockwise), prints
//                                    the warm start's restored=/rejected=
//                                    line, then re-serves and re-prints
//                                    that tenant's covers.
//
// Exit status: 0 on success, 1 on usage/parse/serving errors, 2 when
// --validate found violations or --check found a non-propagated
// declared CFD.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cover/propcfd_spc.h"
#include "src/data/eval.h"
#include "src/data/validate.h"
#include "src/engine/engine.h"
#include "src/net/cover_backend.h"
#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/propagation/emptiness.h"
#include "src/propagation/propagation.h"
#include "src/service/catalog_service.h"

using namespace cfdprop;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

/// Reads a whole file; the network modes ship spec *text* (the server
/// parses it), the local modes parse it via LoadSpec.
Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads and parses a spec file; exits with a message via the returned
/// Status on open/parse failure.
Result<Spec> LoadSpec(const char* path) {
  CFDPROP_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  return ParseSpec(text);
}

/// Writes the whole text to `path` (--metrics-dump). Truncates.
Status WriteFileText(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << text;
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

/// Creates-if-missing and validates a snapshot directory — fail fast,
/// or background spills would fail silently and the drive-mode settle
/// wait would stall out with a misleading message.
bool EnsureSnapshotDir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create snapshot dir %s: %s\n",
                 dir.c_str(), std::strerror(errno));
    return false;
  }
  struct stat st;
  if (stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "error: snapshot dir %s is not a directory\n",
                 dir.c_str());
    return false;
  }
  return true;
}

/// Output-column name resolver for a view.
std::function<std::string(AttrIndex)> ViewAttrNames(const SPCUView& view) {
  const SPCView& first = view.disjuncts.front();
  return [&first](AttrIndex i) {
    return i < first.output.size() ? first.output[i].name
                                   : "#" + std::to_string(i);
  };
}

int RunCheck(Spec& spec, const PropagationOptions& options) {
  int violations = 0;
  std::printf("== propagation checks ==\n");
  if (spec.view_cfds.empty()) {
    std::printf("  (no view CFDs declared)\n");
    return 0;
  }
  for (const auto& [view_name, cfd] : spec.view_cfds) {
    const SPCUView& view = spec.views.at(view_name);
    auto r = IsPropagated(spec.catalog, view, spec.source_cfds, cfd,
                          options);
    if (!r.ok()) return Fail(r.status());
    std::string rendered = FormatCFD(cfd, spec.catalog.pool(), view_name,
                                     ViewAttrNames(view));
    std::printf("  %-60s : %s\n", rendered.c_str(),
                *r ? "PROPAGATED" : "NOT propagated");
    if (!*r) ++violations;
  }
  return violations == 0 ? 0 : 2;
}

int RunCover(Spec& spec) {
  std::printf("== minimal propagation covers ==\n");
  for (const std::string& name : spec.view_names) {
    const SPCUView& view = spec.views.at(name);
    auto result =
        PropagationCoverSPCU(spec.catalog, view, spec.source_cfds);
    if (!result.ok()) return Fail(result.status());
    std::printf("view %s (%zu CFDs%s%s):\n", name.c_str(),
                result->cover.size(),
                result->always_empty ? ", ALWAYS EMPTY" : "",
                result->truncated ? ", TRUNCATED" : "");
    for (const CFD& c : result->cover) {
      std::printf("  %s\n",
                  FormatCFD(c, spec.catalog.pool(), name,
                            ViewAttrNames(view))
                      .c_str());
    }
  }
  return 0;
}

int RunEmptiness(Spec& spec, const EmptinessOptions& options) {
  std::printf("== emptiness analysis ==\n");
  for (const std::string& name : spec.view_names) {
    auto r = IsAlwaysEmpty(spec.catalog, spec.views.at(name),
                           spec.source_cfds, options);
    if (!r.ok()) return Fail(r.status());
    std::printf("  view %-20s : %s\n", name.c_str(),
                *r ? "always empty under Sigma" : "satisfiable");
  }
  return 0;
}

int RunValidate(Spec& spec) {
  std::printf("== data validation ==\n");
  auto db = spec.MakeDatabase();
  if (!db.ok()) return Fail(db.status());

  int total_violations = 0;
  // Source CFDs against the source relations.
  for (const CFD& c : spec.source_cfds) {
    const Relation& rel = db->relation(c.relation);
    auto v = FindViolations(rel.tuples(), c, rel.schema().arity());
    if (!v.ok()) return Fail(v.status());
    if (!v->empty()) {
      total_violations += static_cast<int>(v->size());
      std::printf("  %s: %zu violation(s) on %s\n",
                  c.ToString(spec.catalog).c_str(), v->size(),
                  rel.schema().name().c_str());
    }
  }
  // View CFDs against the materialized views.
  for (const auto& [view_name, cfd] : spec.view_cfds) {
    const SPCUView& view = spec.views.at(view_name);
    auto rows = Evaluate(*db, view);
    if (!rows.ok()) return Fail(rows.status());
    auto v = FindViolations(*rows, cfd, view.OutputArity());
    if (!v.ok()) return Fail(v.status());
    if (!v->empty()) {
      total_violations += static_cast<int>(v->size());
      std::printf("  %s: %zu violation(s) on view %s (%zu rows)\n",
                  FormatCFD(cfd, spec.catalog.pool(), view_name,
                            ViewAttrNames(view))
                      .c_str(),
                  v->size(), view_name.c_str(), rows->size());
    }
  }
  if (total_violations == 0) {
    std::printf("  all declared CFDs hold on the data\n");
    return 0;
  }
  return 2;
}

/// `--flag N` parsing shared by every serving mode: digits only in
/// [0, 2^24] (strtoul would silently wrap '-1' to ULONG_MAX), exits
/// with a message on misuse. Advances *i past the consumed value.
bool ParseSizeFlag(int argc, char** argv, int* i, const char* flag,
                   size_t* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    std::exit(1);
  }
  const char* text = argv[++*i];
  const size_t kMaxFlagValue = 1u << 24;
  char* end = nullptr;
  unsigned long value = std::strtoul(text, &end, 10);
  if (*text == '\0' || end == text || *end != '\0' || *text == '-' ||
      *text == '+' || value > kMaxFlagValue) {
    std::fprintf(stderr, "error: %s needs a number in [0, %zu], got '%s'\n",
                 flag, kMaxFlagValue, text);
    std::exit(1);
  }
  *out = static_cast<size_t>(value);
  return true;
}

/// `--flag VALUE` for a string value, same contract as ParseSizeFlag.
bool ParseStringFlag(int argc, char** argv, int* i, const char* flag,
                     std::string* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    std::exit(1);
  }
  *out = argv[++*i];
  return true;
}

/// One `--tenant NAME=SPEC`: a tenant name and its spec file.
struct TenantArg {
  std::string name;
  std::string path;
};

/// `--tenant NAME=SPEC` parsing shared by listen and drive, same
/// contract as ParseSizeFlag.
bool ParseTenantFlag(int argc, char** argv, int* i,
                     std::vector<TenantArg>* out) {
  std::string arg;
  if (!ParseStringFlag(argc, argv, i, "--tenant", &arg)) return false;
  const size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    std::fprintf(stderr, "error: --tenant needs NAME=SPEC, got '%s'\n",
                 arg.c_str());
    std::exit(1);
  }
  out->push_back({arg.substr(0, eq), arg.substr(eq + 1)});
  return true;
}

/// Prints one served cover the way every serving mode does, so scripts
/// can diff modes and backends byte for byte: a header line, then
/// (unless `quiet`) one line per CFD. `pool` must be the pool the
/// cover's constants were interned into.
void PrintCover(const std::string& label, const std::string& view_name,
                const SPCUView& view, const EngineResult& r,
                const ValuePool& pool, bool quiet) {
  std::string union_info;
  if (r.disjunct_count > 1) {
    union_info = ", union " + std::to_string(r.disjunct_hits) + "/" +
                 std::to_string(r.disjunct_count) + " disjunct hits";
  }
  std::printf("view %s (%zu CFDs%s%s%s, fp=%016llx):\n", label.c_str(),
              r.cover->cover.size(),
              r.cover->always_empty ? ", ALWAYS EMPTY" : "",
              r.cover->truncated ? ", TRUNCATED" : "", union_info.c_str(),
              static_cast<unsigned long long>(r.fingerprint));
  if (quiet) return;
  for (const CFD& c : r.cover->cover) {
    std::printf("  %s\n",
                FormatCFD(c, pool, view_name, ViewAttrNames(view)).c_str());
  }
}

/// A churn-script CFD rendered against its source relation.
std::string FormatSourceCFD(const CFD& cfd, const Catalog& catalog) {
  const RelationSchema& rel = catalog.relation(cfd.relation);
  return FormatCFD(cfd, catalog.pool(), rel.name(), [&rel](AttrIndex a) {
    return a < rel.arity() ? rel.attr(a).name : "#" + std::to_string(a);
  });
}

int RunBatch(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s batch SPEC [--threads N] [--repeat K]"
                 " [--cache N] [--no-cache] [--quiet]"
                 " [--snapshot-in FILE] [--snapshot-out FILE]\n",
                 argv[0]);
    return 1;
  }
  auto spec = LoadSpec(argv[2]);
  if (!spec.ok()) return Fail(spec.status());

  EngineOptions options;
  size_t repeat = 1;
  bool quiet = false;
  std::string snapshot_in, snapshot_out;
  for (int i = 3; i < argc; ++i) {
    auto int_arg = [&](const char* flag, size_t* out) {
      return ParseSizeFlag(argc, argv, &i, flag, out);
    };
    if (ParseStringFlag(argc, argv, &i, "--snapshot-in", &snapshot_in) ||
        ParseStringFlag(argc, argv, &i, "--snapshot-out", &snapshot_out) ||
        int_arg("--threads", &options.num_threads) ||
        int_arg("--repeat", &repeat)) {
      continue;
    }
    if (int_arg("--cache", &options.cache_capacity)) {
      if (options.cache_capacity == 0) options.use_cache = false;
      continue;
    }
    if (!std::strcmp(argv[i], "--no-cache")) {
      options.use_cache = false;
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  Engine engine(std::move(spec->catalog), options);
  auto sigma_id = engine.RegisterSigma(spec->source_cfds);
  if (!sigma_id.ok()) return Fail(sigma_id.status());

  // Warm start: restore cached covers spilled by a previous run. A
  // rejected file (version bump, changed Sigma, corruption) is not an
  // error — the run just serves cold, exactly as if no snapshot existed.
  if (!snapshot_in.empty()) {
    auto loaded = engine.LoadSnapshot(snapshot_in);
    if (loaded.ok()) {
      std::printf("== snapshot ==\n  loaded %s: restored=%llu "
                  "rejected=%llu\n",
                  snapshot_in.c_str(),
                  static_cast<unsigned long long>(loaded->restored),
                  static_cast<unsigned long long>(loaded->rejected));
    } else {
      std::printf("== snapshot ==\n  rejected %s: %s (restored=0)\n",
                  snapshot_in.c_str(),
                  loaded.status().ToString().c_str());
    }
  }

  // The serving round: the spec's `serve` list when declared, else one
  // request per declared view. The engine serves SPC and SPCU alike
  // (union requests assemble from the per-disjunct cache lines).
  std::vector<Engine::Request> round;
  std::vector<std::string> round_names;
  for (const std::string& name : spec->ServingRound()) {
    round.push_back({spec->views.at(name), *sigma_id});
    round_names.push_back(name);
  }
  // Replay the same round `repeat` times rather than materializing
  // repeat * |round| request copies; stats aggregate across batches.
  const size_t total_requests = round.size() * repeat;
  std::vector<Result<EngineResult>> results;
  int rc = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t k = 0; k < repeat; ++k) {
    auto batch = engine.PropagateBatch(round);
    for (auto& r : batch) {
      if (!r.ok()) rc = 1;
    }
    if (k == 0) results = std::move(batch);
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  auto print_results = [&](const std::vector<Result<EngineResult>>& batch) {
    for (size_t i = 0; i < round.size() && i < batch.size(); ++i) {
      const std::string& name = round_names[i];
      if (!batch[i].ok()) {
        rc = Fail(batch[i].status());
        continue;
      }
      PrintCover(name, name, spec->views.at(name), *batch[i],
                 engine.catalog().pool(), quiet);
    }
  };
  print_results(results);
  EngineStatsSnapshot stats = engine.Stats();
  std::printf("== engine stats ==\n  %s\n", stats.ToString().c_str());
  std::printf("  batch: %zu requests in %.2f ms (%.0f covers/sec, "
              "%zu threads)\n",
              total_requests, elapsed_ms,
              elapsed_ms > 0 ? 1000.0 * total_requests / elapsed_ms : 0.0,
              // 0 and 1 both serve inline on the calling thread.
              std::max<size_t>(1, engine.options().num_threads));

  // Spill the cache now, before the churn script mutates Sigma: a
  // restart re-registers the spec's base Sigma, so this is the state it
  // can actually warm from (post-churn lines would just be rejected).
  if (!snapshot_out.empty()) {
    auto saved = engine.SaveSnapshot(snapshot_out);
    if (saved.ok()) {
      std::printf("  snapshot saved to %s (lines=%llu)\n",
                  snapshot_out.c_str(),
                  static_cast<unsigned long long>(*saved));
    } else {
      rc = Fail(saved.status());
    }
  }

  // Sigma churn script: apply each add-cfd/drop-cfd in file order and
  // re-serve the round after every step. Only the mutated sigma's cache
  // lines drop (watch invalidations in the stats); every other line
  // keeps hitting.
  for (const SigmaMutation& m : spec->sigma_mutations) {
    std::string rendered = FormatSourceCFD(m.cfd, engine.catalog());
    Status applied = m.add ? engine.AddCfd(*sigma_id, m.cfd)
                           : engine.RetractCfd(*sigma_id, m.cfd);
    if (!applied.ok()) {
      rc = Fail(applied);
      continue;
    }
    std::printf("== churn: applied %s-cfd (%s) ==\n", m.add ? "add" : "drop",
                rendered.c_str());
    print_results(engine.PropagateBatch(round));
    std::printf("  %s\n", engine.Stats().ToString().c_str());
  }
  return rc;
}

// ---------------------------------------------------------------------
// listen mode: the CatalogService behind a TCP socket
// ---------------------------------------------------------------------

int RunListen(int argc, char** argv) {
  std::vector<TenantArg> tenant_args;
  ServiceOptions options;
  options.engine.num_threads = 1;
  net::CoverServerOptions server_options;
  size_t port = 0, interval_ms = 0, dirty = 1;
  size_t max_inflight = 0, max_queue = 0, io_timeout_ms = 0;
  size_t trace_shift = 0, trace_seed = 0, slow_threshold_us = 0;
  bool dispatchers_set = false, trace_shift_set = false, slow_set = false;
  std::string metrics_dump, trace_dump;
  for (int i = 2; i < argc; ++i) {
    auto int_arg = [&](const char* flag, size_t* out) {
      return ParseSizeFlag(argc, argv, &i, flag, out);
    };
    auto str_arg = [&](const char* flag, std::string* out) {
      return ParseStringFlag(argc, argv, &i, flag, out);
    };
    if (int_arg("--dispatchers", &options.dispatcher_threads)) {
      dispatchers_set = true;
    } else if (int_arg("--trace-shift", &trace_shift)) {
      trace_shift_set = true;
    } else if (int_arg("--slow-threshold-us", &slow_threshold_us)) {
      slow_set = true;
    } else if (ParseTenantFlag(argc, argv, &i, &tenant_args) ||
               str_arg("--host", &server_options.host) ||
               str_arg("--snapshot-dir", &options.snapshot_dir) ||
               str_arg("--metrics-dump", &metrics_dump) ||
               str_arg("--trace-dump", &trace_dump) ||
               int_arg("--port", &port) ||
               int_arg("--threads", &options.engine.num_threads) ||
               int_arg("--budget", &options.global_cache_budget) ||
               int_arg("--max-inflight", &max_inflight) ||
               int_arg("--max-queue", &max_queue) ||
               int_arg("--io-timeout", &io_timeout_ms) ||
               int_arg("--interval-ms", &interval_ms) ||
               int_arg("--trace-seed", &trace_seed) ||
               int_arg("--dirty", &dirty)) {
      continue;
    } else {
      std::fprintf(stderr,
                   "error: unknown flag %s\n"
                   "usage: %s listen [--host H] [--port N]"
                   " [--tenant NAME=SPEC ...] [--threads N] [--dispatchers N]"
                   " [--budget N] [--max-inflight N] [--max-queue N]"
                   " [--io-timeout MS]"
                   " [--snapshot-dir DIR] [--interval-ms N] [--dirty N]"
                   " [--metrics-dump PATH] [--trace-dump PATH]"
                   " [--trace-shift K] [--slow-threshold-us N]"
                   " [--trace-seed N]\n",
                   argv[i], argv[0]);
      return 1;
    }
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port must be <= 65535\n");
    return 1;
  }
  server_options.port = static_cast<uint16_t>(port);
  server_options.io_timeout = std::chrono::milliseconds(io_timeout_ms);
  if (!options.snapshot_dir.empty() &&
      !EnsureSnapshotDir(options.snapshot_dir)) {
    return 1;
  }
  options.policy.interval = std::chrono::milliseconds(interval_ms);
  options.policy.dirty_line_threshold = std::max<size_t>(1, dirty);
  options.admission.max_inflight_batches = max_inflight;
  options.admission.max_queued_batches = max_queue;
  if (!dispatchers_set && options.dispatcher_threads < tenant_args.size()) {
    options.dispatcher_threads = tenant_args.size();
  }

  // Tracing arms before the service exists so every dispatcher thread
  // sees the tracer from its first frame — and the scope outlives the
  // service (declared first, destroyed last), so dispatcher tails can
  // still record while tearing down. --trace-dump alone samples every
  // request (shift 0): the CI greps exact span counts out of the dump.
  // --slow-threshold-us alone keeps sampling off and captures only the
  // slow ring.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::ScopedProcessTracer> scoped_tracer;
  if (!trace_dump.empty() || trace_shift_set || slow_set) {
    obs::ObsOptions topts;
    topts.trace_sample_shift = trace_shift_set
                                   ? static_cast<int>(trace_shift)
                                   : (!trace_dump.empty() ? 0 : -1);
    topts.slow_threshold_us =
        slow_set ? static_cast<int64_t>(slow_threshold_us) : -1;
    topts.trace_seed = trace_seed;
    tracer = std::make_unique<obs::Tracer>(topts);
    scoped_tracer = std::make_unique<obs::ScopedProcessTracer>(tracer.get());
  }

  CatalogService service(options);
  net::CoverServer server(service, server_options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("== tenants ==\n");
  for (const auto& [name, path] : tenant_args) {
    auto text = ReadFileText(path);
    if (!text.ok()) return Fail(text.status());
    auto opened = server.OpenSpec(name, *text);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("tenant %s: opened %s budget=%llu restored=%llu "
                "rejected=%llu\n",
                name.c_str(), path.c_str(),
                static_cast<unsigned long long>(opened->cache_budget),
                static_cast<unsigned long long>(opened->restored),
                static_cast<unsigned long long>(opened->rejected));
  }
  std::printf("listening on %s:%u (max-inflight=%zu max-queue=%zu)\n",
              server_options.host.c_str(), server.port(), max_inflight,
              max_queue);
  std::fflush(stdout);

  server.WaitForShutdown();

  ServiceStatsSnapshot stats = service.Stats();
  std::printf("== service stats ==\n");
  for (const TenantStatsSnapshot& t : stats.tenants) {
    std::printf("  %s\n", t.ToString().c_str());
  }
  std::printf("  service: tenants=%zu budget=%zu submitted=%llu "
              "completed=%llu rejected=%llu\n",
              stats.tenants.size(), stats.global_cache_budget,
              static_cast<unsigned long long>(stats.batches_submitted),
              static_cast<unsigned long long>(stats.batches_completed),
              static_cast<unsigned long long>(stats.batches_rejected));
  net::CoverServerStats net_stats = server.Stats();
  std::printf("  net: connections=%llu frames=%llu decode_errors=%llu"
              " deadlines_exceeded=%llu\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.frames_served),
              static_cast<unsigned long long>(net_stats.decode_errors),
              static_cast<unsigned long long>(net_stats.deadlines_exceeded));
  // Per-tenant admission outcome at a glance — the same counters the
  // cfdprop_admitted_total / cfdprop_admission_rejected_total series
  // export, so the CI can diff this ledger against a metrics scrape.
  for (const TenantStatsSnapshot& t : stats.tenants) {
    std::printf("  tenant %s admission: admitted=%llu rejected=%llu\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.admitted),
                static_cast<unsigned long long>(t.admission_rejected));
  }
  // The dump renders before Stop(): the server's net-layer collector
  // (connections/frames/decode_errors, net stage histograms) is removed
  // on Stop, and the dump should include every layer.
  if (!metrics_dump.empty()) {
    Status dumped = WriteFileText(metrics_dump,
                                  service.RenderMetricsText());
    if (!dumped.ok()) {
      server.Stop();
      return Fail(dumped);
    }
    std::printf("metrics dumped to %s\n", metrics_dump.c_str());
  }
  if (tracer != nullptr) {
    // The dump file carries the sampled trees (main ring) only; the
    // slow ring — which duplicates any sampled slow root — gets its own
    // section below, so a slow-but-sampled request isn't double-printed
    // inside one tree.
    std::vector<obs::SpanRecord> sampled, slow;
    for (obs::SpanRecord& s : tracer->Snapshot()) {
      (s.slow ? slow : sampled).push_back(std::move(s));
    }
    if (!trace_dump.empty()) {
      Status dumped = WriteFileText(trace_dump, obs::FormatSpanTrees(sampled));
      if (!dumped.ok()) {
        server.Stop();
        return Fail(dumped);
      }
      std::printf("trace dumped to %s (spans=%llu dropped=%llu slow=%llu)\n",
                  trace_dump.c_str(),
                  static_cast<unsigned long long>(tracer->spans_recorded()),
                  static_cast<unsigned long long>(tracer->spans_dropped()),
                  static_cast<unsigned long long>(tracer->slow_requests()));
    }
    if (tracer->slow_enabled()) {
      std::printf("== slow requests (threshold=%lldus, captured=%llu) ==\n%s",
                  static_cast<long long>(tracer->slow_threshold_us()),
                  static_cast<unsigned long long>(tracer->slow_requests()),
                  obs::FormatSpanTrees(slow).c_str());
    }
  }
  server.Stop();
  return 0;
}

// ---------------------------------------------------------------------
// drive mode: tenants' serving rounds through any CoverBackend
// ---------------------------------------------------------------------

/// One driven tenant. The spec is parsed here too: it gives the serving
/// round, the view shapes the printer names columns with, and the churn
/// script.
struct DriveTenant {
  std::string name;
  std::string path;
  Spec spec;
  std::vector<std::string> round;
  /// The tenant in this process's service (inproc only).
  TenantHandle handle;
  /// The open's reply; empty under --no-open.
  std::optional<net::OpenCatalogReplyInfo> opened;

  /// The pool served covers' constants live in: the tenant engine's in
  /// process (InProcBackend serves straight from the engine and ignores
  /// the submit pool), this spec's on the wire (decoded covers intern
  /// into the submit pool, which is this one).
  const ValuePool& cover_pool() const {
    return handle ? handle->engine().catalog().pool() : spec.catalog.pool();
  }
};

int RunDrive(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s drive --backend inproc|HOST:PORT"
                 " [--backend HOST:PORT ...] [--tenant NAME=SPEC ...]"
                 " [--rounds K] [--burst N] [--quiet] [--stats] [--metrics]"
                 " [--metrics-dump PATH] [--trace]\n"
                 "  in process:  [--threads N] [--dispatchers N] [--budget N]"
                 " [--snapshot-dir DIR] [--interval-ms N] [--dirty N]"
                 " [--no-churn]\n"
                 "  remote:      [--connect-timeout MS] [--io-timeout MS]"
                 " [--no-open] [--shutdown]\n"
                 "  2+ backends: [--vnodes N] [--migrate TENANT[=SHARD] ...]\n",
                 argv[0]);
    return 1;
  };

  std::vector<TenantArg> tenant_args;
  std::vector<std::string> backend_args;
  // tenant -> explicit target shard; SIZE_MAX = next shard clockwise.
  std::vector<std::pair<std::string, size_t>> migrations;
  ServiceOptions service_options;
  service_options.engine.num_threads = 1;
  size_t rounds = 2, burst = 0, vnodes = 0, interval_ms = 0, dirty = 1;
  size_t connect_timeout_ms = 0, io_timeout_ms = 0;
  bool quiet = false, churn = true, open_tenants = true;
  bool want_stats = false, want_metrics = false, want_trace = false;
  bool want_shutdown = false;
  std::string metrics_dump;
  // Every flag given, for the per-backend refusals below.
  std::set<std::string> given;
  for (int i = 2; i < argc; ++i) {
    given.insert(argv[i]);
    auto int_arg = [&](const char* flag, size_t* out) {
      return ParseSizeFlag(argc, argv, &i, flag, out);
    };
    auto str_arg = [&](const char* flag, std::string* out) {
      return ParseStringFlag(argc, argv, &i, flag, out);
    };
    std::string arg;
    if (str_arg("--backend", &arg)) {
      backend_args.push_back(arg);
    } else if (str_arg("--migrate", &arg)) {
      size_t target = SIZE_MAX;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        char* end = nullptr;
        const char* text = arg.c_str() + eq + 1;
        target = std::strtoul(text, &end, 10);
        if (eq == 0 || *text == '\0' || *end != '\0') {
          std::fprintf(stderr,
                       "error: --migrate needs TENANT[=SHARD], got '%s'\n",
                       arg.c_str());
          return 1;
        }
        arg.resize(eq);
      }
      migrations.emplace_back(arg, target);
    } else if (ParseTenantFlag(argc, argv, &i, &tenant_args) ||
               str_arg("--snapshot-dir", &service_options.snapshot_dir) ||
               str_arg("--metrics-dump", &metrics_dump) ||
               int_arg("--rounds", &rounds) || int_arg("--burst", &burst) ||
               int_arg("--threads", &service_options.engine.num_threads) ||
               int_arg("--dispatchers",
                       &service_options.dispatcher_threads) ||
               int_arg("--budget", &service_options.global_cache_budget) ||
               int_arg("--interval-ms", &interval_ms) ||
               int_arg("--dirty", &dirty) || int_arg("--vnodes", &vnodes) ||
               int_arg("--connect-timeout", &connect_timeout_ms) ||
               int_arg("--io-timeout", &io_timeout_ms)) {
      continue;
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else if (!std::strcmp(argv[i], "--no-churn")) {
      churn = false;
    } else if (!std::strcmp(argv[i], "--no-open")) {
      open_tenants = false;
    } else if (!std::strcmp(argv[i], "--stats")) {
      want_stats = true;
    } else if (!std::strcmp(argv[i], "--metrics")) {
      want_metrics = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      want_trace = true;
    } else if (!std::strcmp(argv[i], "--shutdown")) {
      want_shutdown = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return usage();
    }
  }

  // The backend follows --backend: `inproc`, one server, or a cluster.
  const bool in_process =
      backend_args.size() == 1 && backend_args[0] == "inproc";
  if (!in_process && std::count(backend_args.begin(), backend_args.end(),
                                "inproc") > 0) {
    std::fprintf(stderr, "error: --backend inproc stands alone\n");
    return usage();
  }
  std::vector<net::CoverClientOptions> servers;
  for (const std::string& arg : in_process ? std::vector<std::string>{}
                                           : backend_args) {
    const size_t colon = arg.rfind(':');
    unsigned long port = 0;
    if (colon != std::string::npos && colon != 0) {
      char* end = nullptr;
      const char* text = arg.c_str() + colon + 1;
      port = std::strtoul(text, &end, 10);
      if (*text == '\0' || *end != '\0') port = 0;
    }
    if (port == 0 || port > 65535) {
      std::fprintf(stderr,
                   "error: --backend needs inproc or HOST:PORT, got '%s'\n",
                   arg.c_str());
      return usage();
    }
    net::CoverClientOptions copts;
    copts.host = arg.substr(0, colon);
    copts.port = static_cast<uint16_t>(port);
    copts.connect_timeout = std::chrono::milliseconds(connect_timeout_ms);
    copts.io_timeout = std::chrono::milliseconds(io_timeout_ms);
    servers.push_back(std::move(copts));
  }
  if (!in_process && servers.empty()) return usage();
  if (tenant_args.empty() && migrations.empty() && !want_stats &&
      !want_metrics && metrics_dump.empty() && !want_shutdown) {
    return usage();
  }
  auto refuse = [&](std::initializer_list<const char*> flags,
                    const char* why) {
    for (const char* flag : flags) {
      if (given.count(flag) != 0) {
        std::fprintf(stderr, "error: %s %s\n", flag, why);
        return true;
      }
    }
    return false;
  };
  // The wire has no mutation frame and no service knobs: what needs the
  // service in this process is refused on remote backends, and what
  // needs a socket is refused in process.
  if (!in_process &&
      refuse({"--threads", "--dispatchers", "--budget", "--snapshot-dir",
              "--interval-ms", "--dirty", "--no-churn"},
             "needs an in-process service (--backend inproc)")) {
    return usage();
  }
  if (in_process &&
      refuse({"--connect-timeout", "--io-timeout", "--no-open", "--shutdown"},
             "needs a remote backend")) {
    return usage();
  }
  if (servers.size() < 2 &&
      refuse({"--migrate", "--vnodes"}, "needs at least 2 backends")) {
    return usage();
  }

  // --trace makes this process the trace edge, sampling every request.
  // Declared before the service so it outlives every service thread.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::ScopedProcessTracer> scoped_tracer;
  if (want_trace) {
    obs::ObsOptions topts;
    topts.trace_sample_shift = 0;
    tracer = std::make_unique<obs::Tracer>(topts);
    scoped_tracer = std::make_unique<obs::ScopedProcessTracer>(tracer.get());
  }

  std::unique_ptr<CatalogService> service;
  std::unique_ptr<net::InProcBackend> inproc;
  std::unique_ptr<net::RemoteBackend> remote;
  std::unique_ptr<net::CoverRouter> router;
  net::CoverBackend* backend = nullptr;
  std::string where;  // how the stats/metrics banners name the backend
  if (in_process) {
    if (!service_options.snapshot_dir.empty() &&
        !EnsureSnapshotDir(service_options.snapshot_dir)) {
      return 1;
    }
    // 0 would make the settle check below unsatisfiable (and the service
    // clamps the policy threshold to >= 1 anyway).
    dirty = std::max<size_t>(1, dirty);
    service_options.policy.interval = std::chrono::milliseconds(interval_ms);
    service_options.policy.dirty_line_threshold = dirty;
    if (given.count("--dispatchers") == 0) {
      service_options.dispatcher_threads = std::max(
          service_options.dispatcher_threads, tenant_args.size());
    }
    service = std::make_unique<CatalogService>(service_options);
    inproc = std::make_unique<net::InProcBackend>(*service);
    backend = inproc.get();
    where = "inproc";
  } else if (servers.size() == 1) {
    remote = std::make_unique<net::RemoteBackend>(servers[0]);
    Status connected = remote->Connect();
    if (!connected.ok()) return Fail(connected);
    backend = remote.get();
    where = "remote";
  } else {
    net::CoverRouterOptions router_options;
    router_options.shards = std::move(servers);
    if (vnodes > 0) router_options.virtual_nodes = vnodes;
    router = std::make_unique<net::CoverRouter>(std::move(router_options));
    backend = router.get();
    where = "routed, " + std::to_string(router->num_shards()) + " shards";
  }
  const size_t num_shards = router ? router->num_shards() : 1;

  std::vector<DriveTenant> tenants;
  tenants.reserve(tenant_args.size());
  for (const auto& [name, path] : tenant_args) {
    auto text = ReadFileText(path);
    if (!text.ok()) return Fail(text.status());
    auto spec = ParseSpec(*text);
    if (!spec.ok()) return Fail(spec.status());
    DriveTenant& t = tenants.emplace_back();
    t.name = name;
    t.path = path;
    t.spec = std::move(spec).value();
    t.round = t.spec.ServingRound();
    if (inproc) {
      // The catalog (and its pool) moves into the tenant engine, so the
      // covers served and the churn script's CFDs share one pool.
      Spec served;
      served.catalog = std::move(t.spec.catalog);
      served.source_cfds = t.spec.source_cfds;
      served.views = t.spec.views;
      auto opened = inproc->OpenParsedSpec(name, std::move(served));
      if (!opened.ok()) return Fail(opened.status());
      t.opened = *opened;
      t.handle = service->ResolveCatalog(name).value();
    } else if (open_tenants) {
      auto opened = backend->OpenCatalog(name, *text);
      if (!opened.ok()) return Fail(opened.status());
      t.opened = *opened;
    }
  }

  // Every open rebalances the budgets, so the banner prints once all
  // are up. In process the settled budgets are free to read; over the
  // wire the open replies stand (a stats frame would show in what the
  // server counts).
  if (!tenants.empty()) std::printf("== tenants ==\n");
  for (const DriveTenant& t : tenants) {
    if (!t.opened) continue;
    const std::string via =
        router ? " via shard " + std::to_string(router->ShardFor(t.name))
               : "";
    std::printf("tenant %s: opened %s%s budget=%llu restored=%llu "
                "rejected=%llu\n",
                t.name.c_str(), t.path.c_str(), via.c_str(),
                static_cast<unsigned long long>(
                    t.handle ? t.handle->cache_budget()
                             : t.opened->cache_budget),
                static_cast<unsigned long long>(t.opened->restored),
                static_cast<unsigned long long>(t.opened->rejected));
  }

  int rc = 0;
  // One round of one tenant; returns the requests served.
  auto serve = [&](DriveTenant& t, bool print) -> size_t {
    auto reply = backend->SubmitBatch(t.name, t.round, t.spec.catalog.pool());
    if (!reply.ok() || !reply->status.ok()) {
      const Status& s = reply.ok() ? reply->status : reply.status();
      std::fprintf(stderr, "error: tenant %s: %s\n", t.name.c_str(),
                   s.ToString().c_str());
      rc = 1;
      return 0;
    }
    for (size_t i = 0; i < reply->results.size(); ++i) {
      const Result<EngineResult>& r = reply->results[i];
      if (!r.ok()) {
        std::fprintf(stderr, "error: tenant %s request %zu: %s\n",
                     t.name.c_str(), i, r.status().ToString().c_str());
        rc = 1;
      } else if (print && i < t.round.size()) {
        const std::string& view = t.round[i];
        PrintCover(t.name + "/" + view, view, t.spec.views.at(view), *r,
                   t.cover_pool(), quiet);
      }
    }
    return reply->results.size();
  };
  // One round of every tenant, in order; `print(i)` selects whose
  // covers print.
  auto serve_round = [&](auto print) {
    size_t served = 0;
    for (size_t i = 0; i < tenants.size(); ++i) {
      served += serve(tenants[i], print(i));
    }
    return served;
  };

  size_t total_requests = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t k = 0; k < rounds; ++k) {
    total_requests += serve_round([k](size_t) { return k == 0; });
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (!tenants.empty() && rounds > 0) {
    std::printf("== rounds ==\n  %zu requests in %.2f ms (%.0f covers/sec, "
                "%zu tenants, %zu rounds)\n",
                total_requests, elapsed_ms,
                elapsed_ms > 0 ? 1000.0 * total_requests / elapsed_ms : 0.0,
                tenants.size(), rounds);
  }

  // Pipelined burst: N copies of the round in ONE call — the service
  // decides every batch's admission atomically, so the admitted and
  // rejected counts are deterministic for given caps.
  if (burst > 0) {
    for (DriveTenant& t : tenants) {
      std::vector<std::vector<std::string>> batches(burst, t.round);
      auto replies =
          backend->SubmitBatches(t.name, batches, t.spec.catalog.pool());
      if (!replies.ok()) return Fail(replies.status());
      size_t admitted = 0, rejected = 0;
      for (const BatchResult& b : *replies) {
        if (b.status.ok()) {
          ++admitted;
        } else if (b.status.code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          std::fprintf(stderr, "error: burst tenant %s: %s\n",
                       t.name.c_str(), b.status.ToString().c_str());
          rc = 1;
        }
      }
      std::printf("burst tenant %s: batches=%zu admitted=%zu rejected=%zu\n",
                  t.name.c_str(), burst, admitted, rejected);
    }
  }

  // Live migrations: drain -> snapshot -> warm-start on the target ->
  // flip the route, then re-serve the tenant so its post-move covers
  // print (the diff target for byte-identity across the move).
  for (const auto& [name, explicit_target] : migrations) {
    const size_t from = router->ShardFor(name);
    const size_t target = explicit_target == SIZE_MAX
                              ? (from + 1) % router->num_shards()
                              : explicit_target;
    auto report = router->MigrateTenant(name, target);
    if (!report.ok()) {
      rc = Fail(report.status());
      continue;
    }
    std::printf("migrate tenant %s: shard %zu -> %zu snapshot_bytes=%llu "
                "restored=%llu rejected=%llu\n",
                name.c_str(), report->from, report->to,
                static_cast<unsigned long long>(report->snapshot_bytes),
                static_cast<unsigned long long>(report->restored),
                static_cast<unsigned long long>(report->rejected));
    for (DriveTenant& t : tenants) {
      if (t.name == name) serve(t, /*print=*/true);
    }
  }

  // When the background policy is on, prove it settles before moving
  // on: every tenant must drop below the dirty threshold, which on a
  // cold run means the policy thread actually spilled it (a warm-started
  // tenant that only hit was never dirty and settles at 0 spills).
  if (service && !service_options.snapshot_dir.empty() && interval_ms > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    bool settled = false;
    std::vector<TenantStatsSnapshot> policy_stats;
    while (!settled && std::chrono::steady_clock::now() < deadline) {
      settled = true;
      policy_stats = service->Stats().tenants;
      for (const TenantStatsSnapshot& t : policy_stats) {
        if (t.dirty_lines >= dirty) settled = false;
      }
      if (!settled) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (settled) {
      for (const TenantStatsSnapshot& t : policy_stats) {
        std::printf("policy: tenant %s settled (policy_spills=%llu "
                    "dirty=%llu)\n",
                    t.name.c_str(),
                    static_cast<unsigned long long>(t.policy_spills),
                    static_cast<unsigned long long>(t.dirty_lines));
      }
    } else {
      std::fprintf(stderr,
                   "error: snapshot policy did not settle every tenant\n");
      rc = 1;
    }
  }

  if (want_stats) {
    auto stats = backend->Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("== service stats (%s) ==\n", where.c_str());
    for (const net::WireTenantStats& t : stats->tenants) {
      std::printf("tenant %s engine: %s\n", t.name.c_str(),
                  t.engine_text.c_str());
      std::printf("tenant %s admission: admitted=%llu rejected=%llu "
                  "queued=%llu running=%llu\n",
                  t.name.c_str(),
                  static_cast<unsigned long long>(t.admitted),
                  static_cast<unsigned long long>(t.admission_rejected),
                  static_cast<unsigned long long>(t.queued),
                  static_cast<unsigned long long>(t.running));
    }
    std::printf("service: tenants=%zu budget=%llu submitted=%llu "
                "completed=%llu rejected=%llu\n",
                stats->tenants.size(),
                static_cast<unsigned long long>(stats->global_cache_budget),
                static_cast<unsigned long long>(stats->batches_submitted),
                static_cast<unsigned long long>(stats->batches_completed),
                static_cast<unsigned long long>(stats->batches_rejected));
  }

  // Churn replay (in process only): each tenant's add-cfd/drop-cfd
  // script runs in spec order while EVERY tenant's round keeps serving —
  // the mutated Σ's lines recompute, the other tenants keep hitting
  // their own caches (the isolation claim of the registry). Only the
  // churned tenant's covers print.
  for (size_t ti = 0; service && churn && ti < tenants.size(); ++ti) {
    DriveTenant& t = tenants[ti];
    Engine& engine = t.handle->engine();
    for (const SigmaMutation& m : t.spec.sigma_mutations) {
      std::string rendered = FormatSourceCFD(m.cfd, engine.catalog());
      Status applied =
          m.add ? engine.AddCfd(0, m.cfd) : engine.RetractCfd(0, m.cfd);
      if (!applied.ok()) {
        rc = Fail(applied);
        continue;
      }
      std::printf("== churn tenant %s: applied %s-cfd (%s) ==\n",
                  t.name.c_str(), m.add ? "add" : "drop", rendered.c_str());
      serve_round([ti](size_t i) { return i == ti; });
      std::printf("  %s\n", engine.Stats().ToString().c_str());
    }
  }

  // Explicit final spill: deterministic line counts for scripts/CI (the
  // destructor's flush would do the same work, silently).
  if (service && !service_options.snapshot_dir.empty()) {
    for (const DriveTenant& t : tenants) {
      auto spilled = service->SpillTenant(t.name);
      if (!spilled.ok()) {
        rc = Fail(spilled.status());
        continue;
      }
      std::printf("spill tenant %s: lines=%llu\n", t.name.c_str(),
                  static_cast<unsigned long long>(*spilled));
    }
  }

  // The raw exposition text, unmodified: pipe it to a file and any
  // Prometheus-format consumer (or tests/obs) can parse it.
  if (want_metrics || !metrics_dump.empty()) {
    auto metrics = backend->Metrics();
    if (!metrics.ok()) return Fail(metrics.status());
    if (want_metrics) {
      std::printf("== metrics (%s) ==\n", where.c_str());
      std::fwrite(metrics->data(), 1, metrics->size(), stdout);
      if (!metrics->empty() && metrics->back() != '\n') std::printf("\n");
    }
    if (!metrics_dump.empty()) {
      Status dumped = WriteFileText(metrics_dump, *metrics);
      if (!dumped.ok()) return Fail(dumped);
      std::printf("metrics dumped to %s\n", metrics_dump.c_str());
    }
  }

  // Stitched trees: this edge's spans (in process: every span) plus
  // each server's rings, fetched over the wire (the TRACE_DUMP frame) —
  // one tree per request, spanning every process via in-band trace ids.
  if (want_trace) {
    std::vector<obs::SpanRecord> spans = tracer->Snapshot();
    for (size_t s = 0; !service && s < num_shards; ++s) {
      auto dumped = router ? router->TraceDumpFrom(s) : remote->TraceDump();
      if (!dumped.ok()) return Fail(dumped.status());
      spans.insert(spans.end(), dumped->begin(), dumped->end());
    }
    std::printf("== trace (stitched, %zu shards, %zu spans) ==\n%s",
                num_shards, spans.size(),
                obs::FormatSpanTrees(spans).c_str());
  }

  if (want_shutdown) {
    Status down = router ? router->ShutdownAll() : remote->Shutdown();
    if (!down.ok()) return Fail(down);
    std::printf("shutdown sent to %zu shards\n", num_shards);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && !std::strcmp(argv[1], "batch")) {
    return RunBatch(argc, argv);
  }
  if (argc >= 2 && !std::strcmp(argv[1], "listen")) {
    return RunListen(argc, argv);
  }
  if (argc >= 2 && !std::strcmp(argv[1], "drive")) {
    return RunDrive(argc, argv);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s SPEC [--check|--cover|--emptiness|--validate]"
                 " [--general]\n",
                 argv[0]);
    return 1;
  }
  auto spec = LoadSpec(argv[1]);
  if (!spec.ok()) return Fail(spec.status());

  bool check = false, cover = false, emptiness = false, validate = false;
  bool general = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) check = true;
    else if (!std::strcmp(argv[i], "--cover")) cover = true;
    else if (!std::strcmp(argv[i], "--emptiness")) emptiness = true;
    else if (!std::strcmp(argv[i], "--validate")) validate = true;
    else if (!std::strcmp(argv[i], "--general")) general = true;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (!check && !cover && !emptiness && !validate) {
    check = cover = emptiness = validate = true;
  }

  PropagationOptions prop_options;
  prop_options.general_setting = general;
  EmptinessOptions empt_options;
  empt_options.general_setting = general;

  int rc = 0;
  auto update = [&rc](int r) { rc = std::max(rc, r); };
  if (emptiness) update(RunEmptiness(*spec, empt_options));
  if (check) update(RunCheck(*spec, prop_options));
  if (cover) update(RunCover(*spec));
  if (validate) update(RunValidate(*spec));
  return rc;
}
