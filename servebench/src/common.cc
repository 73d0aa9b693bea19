#include "servebench/src/common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"

namespace servebench {

using cfdprop::Catalog;
using cfdprop::CFD;
using cfdprop::Spec;
using cfdprop::SPCUView;
using cfdprop::SPCView;

namespace {

WorkloadConfig ColdInproc() {
  WorkloadConfig c;
  c.name = "cold-inproc";
  c.path = Path::kInproc;
  c.tenants = 16;
  c.sigma_size = 400;
  c.spc_views = 96;
  c.union_views = 32;
  c.cache_per_tenant = 16;
  c.batch_size = 8;
  return c;
}

WorkloadConfig HotTcp() {
  WorkloadConfig c;
  c.name = "hot-tcp";
  c.path = Path::kTcp;
  c.tenants = 16;
  c.sigma_size = 400;
  c.spc_views = 32;
  c.cache_per_tenant = 256;
  c.batch_size = 256;
  return c;
}

WorkloadConfig ChurnRouted() {
  WorkloadConfig c;
  c.name = "churn-routed";
  c.path = Path::kRouted;
  c.tenants = 12;
  c.sigma_size = 200;
  c.spc_views = 16;
  c.cache_per_tenant = 256;
  c.batch_size = 256;
  c.shards = 3;
  c.churn_pairs = 60;
  c.moves_per_tenant = 3;
  return c;
}

/// Same code, seconds-long: a handful of tenants, small Σ and few views.
void Shrink(WorkloadConfig* c) {
  c->tenants = 2;
  c->sigma_size = 60;
  c->spc_views = c->union_views > 0 ? 24 : 8;
  c->union_views = c->union_views > 0 ? 8 : 0;
  c->cache_per_tenant = c->union_views > 0 ? 4 : 64;
  if (c->churn_pairs > 0) c->churn_pairs = 4;
  if (c->moves_per_tenant > 0) c->moves_per_tenant = 2;
  c->setup_repeats = 2;
  c->stream_batches = 64;
  c->semantic_sample = 3;
}

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadConfig* out) {
  if (name == "cold-inproc") {
    *out = ColdInproc();
  } else if (name == "hot-tcp") {
    *out = HotTcp();
  } else if (name == "churn-routed") {
    *out = ChurnRouted();
  } else {
    return false;
  }
  if (smoke) Shrink(out);
  return true;
}

Spec BuildSpec(const WorkloadConfig& config, uint64_t seed, size_t tenant) {
  const uint64_t tseed = cfdprop::SplitMix64(seed) + 7919 * tenant;
  Spec spec;
  spec.catalog = cfdprop::GenerateSchema(cfdprop::SchemaGenOptions{}, tseed);

  cfdprop::CFDGenOptions cfd_options;
  cfd_options.count = config.sigma_size;
  cfd_options.min_lhs = kGen.min_lhs;
  cfd_options.max_lhs = kGen.max_lhs;
  cfd_options.var_pct = kGen.var_pct;
  spec.source_cfds =
      cfdprop::GenerateCFDs(spec.catalog, cfd_options, tseed + 1);

  cfdprop::ViewGenOptions view_options;
  view_options.num_projection = kGen.projection;
  view_options.num_selections = kGen.selections;
  view_options.num_atoms = kGen.atoms;
  std::vector<SPCView> views;
  for (uint64_t s = tseed + 10; views.size() < config.spc_views; ++s) {
    auto view = cfdprop::GenerateSPCView(spec.catalog, view_options, s);
    if (view.ok()) views.push_back(std::move(view).value());
  }
  for (size_t i = 0; i < views.size(); ++i) {
    spec.view_names.push_back(ViewName(config, i));
    spec.views.emplace(ViewName(config, i), SPCUView(views[i]));
  }
  for (size_t i = 0; i < config.union_views; ++i) {
    SPCUView u;
    u.disjuncts.push_back(views[i]);
    u.disjuncts.push_back(views[(i + 1) % views.size()]);
    const std::string name = ViewName(config, config.spc_views + i);
    spec.view_names.push_back(name);
    spec.views.emplace(name, std::move(u));
  }
  return spec;
}

// Names are built with += : GCC 12 raises a false -Wrestrict on
// "literal" + std::to_string(...).
std::string TenantName(size_t tenant) {
  std::string name = "t";
  name += std::to_string(tenant);
  return name;
}

size_t NumViews(const WorkloadConfig& config) {
  return config.spc_views + config.union_views;
}

std::string ViewName(const WorkloadConfig& config, size_t view) {
  const bool spc = view < config.spc_views;
  std::string name = spc ? "V" : "U";
  name += std::to_string(spc ? view : view - config.spc_views);
  return name;
}

CFD ChurnCfd(const WorkloadConfig& config, Spec& spec) {
  // (relation, a, b) -> number of SPC views projecting both attributes
  // of one atom of that relation, and which views those are.
  std::map<std::tuple<cfdprop::RelationId, cfdprop::AttrIndex,
                      cfdprop::AttrIndex>,
           std::vector<size_t>>
      projected_by;
  for (size_t v = 0; v < config.spc_views; ++v) {
    const SPCView& view = spec.views.at(ViewName(config, v)).disjuncts[0];
    std::map<size_t, std::vector<cfdprop::AttrIndex>> by_atom;
    for (const auto& out : view.output) {
      if (out.is_constant) continue;
      auto [atom, attr] = view.Locate(spec.catalog, out.ec_column);
      by_atom[atom].push_back(attr);
    }
    for (auto& [atom, attrs] : by_atom) {
      std::sort(attrs.begin(), attrs.end());
      attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
      for (size_t i = 0; i < attrs.size(); ++i) {
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          auto& views = projected_by[{view.atoms[atom], attrs[i], attrs[j]}];
          if (views.empty() || views.back() != v) views.push_back(v);
        }
      }
    }
  }
  // Candidates, the most projected pair first, each in both directions.
  struct Candidate {
    CFD fd;
    const std::vector<size_t>* views;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, views] : projected_by) {
    const auto [relation, a, b] = key;
    candidates.push_back({CFD::FD(relation, {a}, b).value(), &views});
    candidates.push_back({CFD::FD(relation, {b}, a).value(), &views});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.views->size() > y.views->size();
                   });
  if (candidates.empty()) return CFD::FD(cfdprop::RelationId{0}, {0}, 1).value();

  // The first candidate that changes the cover of a view projecting its
  // pair. One that Σ already implies changes nothing, and a stale line
  // served after the mutation would then go unseen.
  cfdprop::PropCoverOptions hoisted;
  hoisted.input_mincover = false;
  auto cover_fp = [&](size_t v, const std::vector<CFD>& sigma) -> uint64_t {
    const SPCView& view = spec.views.at(ViewName(config, v)).disjuncts[0];
    auto r = cfdprop::PropagationCoverSPC(spec.catalog, view, sigma, hoisted);
    return r.ok() ? cfdprop::FingerprintSigmaSet(spec.catalog.pool(), r->cover)
                  : 0;
  };
  auto base = cfdprop::MinCoverSigma(spec.catalog, spec.source_cfds);
  if (!base.ok()) return candidates.front().fd;
  for (const Candidate& c : candidates) {
    std::vector<CFD> raw = spec.source_cfds;
    raw.push_back(c.fd);
    auto churned = cfdprop::MinCoverSigma(spec.catalog, raw);
    if (!churned.ok()) continue;
    for (size_t v : *c.views) {
      if (cover_fp(v, *base) != cover_fp(v, *churned)) return c.fd;
    }
  }
  return candidates.front().fd;
}

std::vector<std::vector<Batch>> BuildStreams(const WorkloadConfig& config,
                                             uint64_t seed) {
  std::vector<std::vector<Batch>> streams(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    cfdprop::Rng rng(
        cfdprop::SplitMix64(seed ^ (0x9e3779b97f4a7c15ull * (c + 1))));
    for (size_t b = 0; b < config.stream_batches; ++b) {
      Batch batch;
      batch.tenant = rng.Below(config.tenants);
      for (size_t r = 0; r < config.batch_size; ++r) {
        const uint32_t v = static_cast<uint32_t>(rng.Below(NumViews(config)));
        batch.views.push_back(v);
        batch.names.push_back(ViewName(config, v));
      }
      streams[c].push_back(std::move(batch));
    }
  }
  return streams;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

HostSample ReadHost() {
  HostSample sample;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string cpu;
    fields >> cpu;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    for (int i = 0; i < 8; ++i) {
      uint64_t v = 0;
      if (!(fields >> v)) break;
      sample.total += v;
      if (i == 7) sample.steal = v;
      if (i <= 2 || i == 5 || i == 6) sample.busy += v;
    }
  }
  std::ifstream loadavg("/proc/loadavg");
  loadavg >> sample.load1;
  return sample;
}

double StolenShare(const HostSample& from, const HostSample& to) {
  const double steal = static_cast<double>(to.steal - from.steal);
  const double busy = static_cast<double>(to.busy - from.busy);
  return steal + busy > 0 ? steal / (steal + busy) : 0;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace servebench
