#include "servebench/src/oracle.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "src/cfd/implication.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/snapshot.h"
#include "src/propagation/propagation.h"

namespace servebench {

using cfdprop::CFD;
using cfdprop::PropCoverOptions;
using cfdprop::Result;
using cfdprop::Spec;
using cfdprop::SPCUView;
using cfdprop::Status;

namespace {

/// One tenant's independently generated inputs, with raw and minimized
/// Σ per state and a memo of one-shot covers.
class TenantOracle {
 public:
  TenantOracle(const WorkloadConfig& config, uint64_t seed, size_t tenant)
      : config_(config), spec_(BuildSpec(config, seed, tenant)) {
    raw_[kBase] = spec_.source_cfds;
    raw_[kChurned] = raw_[kBase];
    raw_[kChurned].push_back(ChurnCfd(config, spec_));
    for (unsigned s : {kBase, kChurned}) {
      auto minimized = cfdprop::MinCoverSigma(spec_.catalog, raw_[s]);
      if (minimized.ok()) {
        minimized_[s] = std::move(minimized).value();
      } else {
        init_ = minimized.status();
      }
    }
  }

  const Status& init() const { return init_; }
  cfdprop::Catalog& catalog() { return spec_.catalog; }
  const std::vector<CFD>& raw(unsigned state) const { return raw_[state]; }
  const SPCUView& view(size_t v) const {
    return spec_.views.at(ViewName(config_, v));
  }

  /// The one-shot cover of (view, state) from the hoisted minimized Σ.
  Result<const std::vector<CFD>*> Cover(size_t v, unsigned state) {
    auto it = covers_.find({v, state});
    if (it == covers_.end()) {
      PropCoverOptions options;
      options.input_mincover = false;
      CFDPROP_ASSIGN_OR_RETURN(
          cfdprop::PropCoverResult r,
          cfdprop::PropagationCoverSPCU(spec_.catalog, view(v),
                                        minimized_[state], options));
      it = covers_.emplace(std::make_pair(v, state), std::move(r.cover)).first;
    }
    return &it->second;
  }

  Result<uint64_t> Fingerprint(size_t v, unsigned state) {
    CFDPROP_ASSIGN_OR_RETURN(const std::vector<CFD>* cover, Cover(v, state));
    return cfdprop::FingerprintSigmaSet(spec_.catalog.pool(), *cover);
  }

  /// The full one-shot from the raw Σ (Fig. 2 line 1 included).
  Result<uint64_t> RawOneShotFingerprint(size_t v, unsigned state) {
    CFDPROP_ASSIGN_OR_RETURN(
        cfdprop::PropCoverResult r,
        cfdprop::PropagationCoverSPCU(spec_.catalog, view(v), raw_[state]));
    return cfdprop::FingerprintSigmaSet(spec_.catalog.pool(), r.cover);
  }

  /// The paper's definition on `cover`: every member is propagated
  /// (chase), and for SPC views no member is implied by the rest.
  Status CheckSemantics(size_t v, unsigned state,
                        const std::vector<CFD>& cover, uint64_t* members) {
    const SPCUView& uview = view(v);
    for (size_t i = 0; i < cover.size(); ++i) {
      CFDPROP_ASSIGN_OR_RETURN(
          bool propagated,
          cfdprop::IsPropagated(spec_.catalog, uview, raw_[state], cover[i]));
      if (!propagated) {
        return Status::Internal("member " + std::to_string(i) + " of " +
                                ViewName(config_, v) +
                                " is not propagated from Σ");
      }
      ++*members;
      if (uview.disjuncts.size() > 1) continue;  // unions: sound only
      std::vector<CFD> others = cover;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(i));
      CFDPROP_ASSIGN_OR_RETURN(
          bool implied,
          cfdprop::Implies(others, cover[i], uview.OutputArity()));
      if (implied) {
        return Status::Internal("member " + std::to_string(i) + " of " +
                                ViewName(config_, v) +
                                " is implied by the others (not minimal)");
      }
    }
    return Status::OK();
  }

 private:
  const WorkloadConfig& config_;
  Spec spec_;
  std::vector<CFD> raw_[2];
  std::vector<CFD> minimized_[2];
  std::map<std::pair<size_t, unsigned>, std::vector<CFD>> covers_;
  Status init_ = Status::OK();
};

/// Checks one tenant's served keys; appends failures to `report`.
void CheckTenant(const WorkloadConfig& config, uint64_t seed, bool churn,
                 size_t tenant, const ServedCovers& served,
                 OracleReport* report, std::mutex* mu) {
  OracleReport local;
  auto fail = [&](const std::string& what) {
    local.failures.push_back(TenantName(tenant) + ": " + what);
  };
  TenantOracle oracle(config, seed, tenant);
  if (!oracle.init().ok()) {
    fail("MinCoverSigma: " + oracle.init().ToString());
  } else {
    const auto lo = served.lower_bound(PackKey(tenant, 0, 0));
    const auto hi = served.lower_bound(PackKey(tenant + 1, 0, 0));
    // Every served key; a straddling request may match either state.
    std::vector<std::pair<size_t, unsigned>> checked;
    for (auto it = lo; it != hi; ++it) {
      const size_t v = (it->first >> 4) & 0xfffffffffull;
      const unsigned state = static_cast<unsigned>(it->first & 0xf);
      ++local.keys;
      std::set<uint64_t> expected;
      for (unsigned s : {kBase, kChurned}) {
        if (state != kEither && state != s) continue;
        auto fp = oracle.Fingerprint(v, s);
        if (!fp.ok()) {
          fail("one-shot " + ViewName(config, v) + ": " +
               fp.status().ToString());
          continue;
        }
        expected.insert(*fp);
      }
      if (state == kEither) {
        ++local.straddled_keys;
      } else {
        checked.emplace_back(v, state);
      }
      for (uint64_t served_fp : it->second) {
        if (expected.count(served_fp) == 0) {
          fail("served cover of " + ViewName(config, v) + " (state " +
               std::to_string(state) + ") differs from the one-shot cover");
        }
      }
    }
    // Samples spread over the tenant's keys: the raw one-shot rerun and
    // the definition checks.
    const size_t n = checked.size();
    const size_t sample = std::min(n, config.semantic_sample);
    for (size_t i = 0; i < sample; ++i) {
      const auto [v, state] = checked[i * n / sample];
      auto hoisted = oracle.Fingerprint(v, state);
      auto raw = oracle.RawOneShotFingerprint(v, state);
      ++local.raw_one_shot;
      if (!hoisted.ok() || !raw.ok() || *hoisted != *raw) {
        fail("raw-Σ one-shot of " + ViewName(config, v) +
             " differs from the minimized-Σ one-shot");
      }
      auto cover = oracle.Cover(v, state);
      if (!cover.ok()) continue;
      ++local.semantic_covers;
      Status sem =
          oracle.CheckSemantics(v, state, **cover, &local.semantic_members);
      if (!sem.ok()) fail(sem.ToString());
    }
    if (churn) {
      size_t differing = 0;
      for (size_t v = 0; v < config.spc_views; ++v) {
        auto a = oracle.Fingerprint(v, kBase);
        auto b = oracle.Fingerprint(v, kChurned);
        if (a.ok() && b.ok() && *a != *b) ++differing;
      }
      local.differing_share = static_cast<double>(differing);
    }
  }
  std::lock_guard<std::mutex> lock(*mu);
  report->keys += local.keys;
  report->straddled_keys += local.straddled_keys;
  report->raw_one_shot += local.raw_one_shot;
  report->semantic_covers += local.semantic_covers;
  report->semantic_members += local.semantic_members;
  report->differing_share += local.differing_share;  // a count until scaled
  for (auto& f : local.failures) report->failures.push_back(std::move(f));
}

}  // namespace

OracleReport RunOracle(const WorkloadConfig& config, uint64_t seed, bool churn,
                       const ServedCovers& served) {
  OracleReport report;
  std::mutex mu;
  std::atomic<size_t> next{0};
  const size_t threads = std::min<size_t>(
      config.tenants, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&] {
      for (size_t t = next++; t < config.tenants; t = next++) {
        CheckTenant(config, seed, churn, t, served, &report, &mu);
      }
    });
  }
  for (auto& th : pool) th.join();
  if (churn) {
    report.differing_share /=
        static_cast<double>(config.tenants * config.spc_views);
    if (report.differing_share <= 0) {
      report.failures.push_back(
          "the churn CFD changes no requested cover: a stale line would "
          "go unseen");
    }
  }
  if (report.keys == 0) report.failures.push_back("no cover was served");
  return report;
}

Status OracleSelfTest(const WorkloadConfig& config, uint64_t seed) {
  TenantOracle oracle(config, seed, 0);
  CFDPROP_RETURN_NOT_OK(oracle.init());
  // The first SPC view with a non-empty cover.
  size_t v = 0;
  const std::vector<CFD>* cover = nullptr;
  for (; v < config.spc_views; ++v) {
    CFDPROP_ASSIGN_OR_RETURN(cover, oracle.Cover(v, kBase));
    if (!cover->empty()) break;
  }
  if (v == config.spc_views) {
    return Status::Internal("self-test: every cover is empty");
  }
  CFDPROP_ASSIGN_OR_RETURN(uint64_t expected, oracle.Fingerprint(v, kBase));
  uint64_t members = 0;
  CFDPROP_RETURN_NOT_OK(oracle.CheckSemantics(v, kBase, *cover, &members));
  const cfdprop::ValuePool& pool = oracle.catalog().pool();

  // 1. A dropped member: the fingerprint comparison must catch it.
  std::vector<CFD> dropped(cover->begin(), cover->end() - 1);
  if (cfdprop::FingerprintSigmaSet(pool, dropped) == expected) {
    return Status::Internal("self-test: a dropped member went unseen");
  }

  // 2. An added CFD that is not propagated: soundness must catch it.
  const size_t arity = oracle.view(v).OutputArity();
  bool sound_caught = false;
  for (cfdprop::AttrIndex a = 0; a < arity && !sound_caught; ++a) {
    for (cfdprop::AttrIndex b = 0; b < arity && !sound_caught; ++b) {
      if (a == b) continue;
      CFD extra = CFD::FD(cfdprop::kViewSchemaId, {a}, b).value();
      CFDPROP_ASSIGN_OR_RETURN(
          bool propagated, cfdprop::IsPropagated(oracle.catalog(),
                                                 oracle.view(v),
                                                 oracle.raw(kBase), extra));
      if (propagated) continue;
      std::vector<CFD> unsound = *cover;
      unsound.push_back(extra);
      sound_caught = !oracle.CheckSemantics(v, kBase, unsound, &members).ok();
      if (!sound_caught) {
        return Status::Internal("self-test: an unsound member went unseen");
      }
    }
  }
  if (!sound_caught) {
    return Status::Internal("self-test: no unsound candidate to inject");
  }

  // 3. An added member implied by another (its LHS augmented by one
  // attribute): minimality must catch it.
  bool minimal_caught = false;
  for (const CFD& phi : *cover) {
    if (phi.is_special_x() || phi.lhs.size() + 1 >= arity) continue;
    for (cfdprop::AttrIndex b = 0; b < arity; ++b) {
      if (b == phi.rhs || phi.Mentions(b)) continue;
      std::vector<cfdprop::AttrIndex> lhs = phi.lhs;
      std::vector<cfdprop::PatternValue> pats = phi.lhs_pats;
      lhs.push_back(b);
      pats.push_back(cfdprop::PatternValue{});
      auto augmented =
          CFD::Make(phi.relation, lhs, pats, phi.rhs, phi.rhs_pat);
      if (!augmented.ok()) continue;
      std::vector<CFD> redundant = *cover;
      redundant.push_back(*augmented);
      if (oracle.CheckSemantics(v, kBase, redundant, &members).ok()) {
        return Status::Internal("self-test: a redundant member went unseen");
      }
      minimal_caught = true;
      break;
    }
    if (minimal_caught) break;
  }
  if (!minimal_caught) {
    return Status::Internal("self-test: no redundant candidate to inject");
  }

  // 4. A stale cover: the base-state cover served under the churned
  // state must not match, for a view the churn CFD changes.
  for (size_t w = 0; w < config.spc_views; ++w) {
    CFDPROP_ASSIGN_OR_RETURN(uint64_t base, oracle.Fingerprint(w, kBase));
    CFDPROP_ASSIGN_OR_RETURN(uint64_t churned,
                             oracle.Fingerprint(w, kChurned));
    if (base == churned) continue;
    ServedCovers stale;
    stale[PackKey(0, w, kChurned)].insert(base);
    WorkloadConfig one = config;
    one.tenants = 1;
    one.semantic_sample = 0;
    OracleReport r = RunOracle(one, seed, /*churn=*/false, stale);
    if (r.failures.empty()) {
      return Status::Internal("self-test: a stale cover went unseen");
    }
    return Status::OK();
  }
  return Status::Internal("self-test: the churn CFD changes no cover");
}

}  // namespace servebench
