#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/base/strfmt.h"

namespace cfdprop {
namespace obs {

namespace {

/// Exposition value formatting: integers print exactly (CI greps match
/// `cfdprop_cache_hits_total{...} 21` literally), everything else
/// prints with round-trip precision so render -> parse -> compare is
/// lossless.
std::string FormatValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    return StrPrintf("%lld", static_cast<long long>(v));
  }
  return StrPrintf("%.17g", v);
}

std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `le` bound for finite buckets renders as an exact integer
/// microsecond count (the bounds are 2^0..2^24).
std::string FormatLe(size_t bucket_index) {
  if (bucket_index >= kFiniteLatencyBuckets) return "+Inf";
  return StrPrintf(
      "%llu", static_cast<unsigned long long>(1ull << bucket_index));
}

void RenderFamily(const MetricFamilySamples& family, std::string& out) {
  if (family.samples.empty()) return;
  if (!family.help.empty()) {
    out += "# HELP " + family.name + " " + family.help + "\n";
  }
  out += "# TYPE " + family.name + " ";
  out += MetricTypeName(family.type);
  out += "\n";
  for (const Sample& s : family.samples) {
    const std::string labels = RenderLabels(s.labels);
    if (family.type == MetricType::kHistogram && s.histogram) {
      const HistogramSnapshot& h = *s.histogram;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < kLatencyBuckets; ++i) {
        cumulative += h.buckets[i];
        out += family.name + "_bucket{";
        if (!labels.empty()) out += labels + ",";
        out += "le=\"" + FormatLe(i) + "\"} " +
               StrPrintf("%llu", static_cast<unsigned long long>(cumulative)) +
               "\n";
      }
      out += family.name + "_sum";
      if (!labels.empty()) out += "{" + labels + "}";
      out += " " + FormatValue(h.sum_us) + "\n";
      out += family.name + "_count";
      if (!labels.empty()) out += "{" + labels + "}";
      out += " " + StrPrintf("%llu", static_cast<unsigned long long>(h.count)) +
             "\n";
    } else {
      out += family.name;
      if (!labels.empty()) out += "{" + labels + "}";
      out += " " + FormatValue(s.value) + "\n";
    }
  }
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i >= kFiniteLatencyBuckets) {
        // +Inf bucket: clamp to the largest finite bound.
        return BucketUpperBoundUs(kFiniteLatencyBuckets - 1);
      }
      const double lower = i == 0 ? 0.0 : BucketUpperBoundUs(i - 1);
      const double upper = BucketUpperBoundUs(i);
      const double frac =
          (target - below) / static_cast<double>(buckets[i]);
      return lower + frac * (upper - lower);
    }
  }
  return BucketUpperBoundUs(kFiniteLatencyBuckets - 1);
}

std::string_view MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string RenderLabels(const LabelSet& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  return out;
}

MetricsRegistry::Family* MetricsRegistry::FamilyFor(std::string_view name,
                                                    std::string_view help,
                                                    MetricType type) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = std::string(help);
  } else if (family.type != type) {
    return nullptr;
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, MetricType::kCounter);
  if (!family) return nullptr;
  Child& child = family->children[RenderLabels(labels)];
  if (!child.counter) {
    child.labels = std::move(labels);
    child.counter = std::make_unique<Counter>();
  }
  return child.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, MetricType::kGauge);
  if (!family) return nullptr;
  Child& child = family->children[RenderLabels(labels)];
  if (!child.gauge) {
    child.labels = std::move(labels);
    child.gauge = std::make_unique<Gauge>();
  }
  return child.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, MetricType::kHistogram);
  if (!family) return nullptr;
  Child& child = family->children[RenderLabels(labels)];
  if (!child.histogram) {
    child.labels = std::move(labels);
    child.histogram = std::make_unique<Histogram>();
  }
  return child.histogram.get();
}

size_t MetricsRegistry::AddCollector(
    std::function<std::vector<MetricFamilySamples>()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void MetricsRegistry::RemoveCollector(size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

std::string MetricsRegistry::RenderText() const {
  // One snapshot per render: every owned metric is loaded exactly once,
  // every collector runs exactly once, and only then is text assembled.
  // Collectors are copied out and run unlocked — a collector may call
  // into code (e.g. CatalogService::Stats) that takes its own locks and
  // could re-enter Get* here, so holding mu_ across them would invert
  // lock order against registration sites.
  std::vector<MetricFamilySamples> families;
  std::vector<std::function<std::vector<MetricFamilySamples>()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    families.reserve(families_.size() + collectors_.size());
    for (const auto& [id, collector] : collectors_) {
      collectors.push_back(collector);
    }
    for (const auto& [name, family] : families_) {
      MetricFamilySamples out;
      out.name = name;
      out.type = family.type;
      out.help = family.help;
      for (const auto& [key, child] : family.children) {
        Sample s;
        s.labels = child.labels;
        if (child.counter) {
          s.value = static_cast<double>(child.counter->Value());
        } else if (child.gauge) {
          s.value = child.gauge->Value();
        } else if (child.histogram) {
          s.histogram = child.histogram->Snapshot();
        }
        out.samples.push_back(std::move(s));
      }
      families.push_back(std::move(out));
    }
  }
  for (const auto& collector : collectors) {
    auto collected = collector();
    for (auto& family : collected) families.push_back(std::move(family));
  }
  std::stable_sort(families.begin(), families.end(),
                   [](const MetricFamilySamples& a,
                      const MetricFamilySamples& b) { return a.name < b.name; });
  std::string out;
  for (const MetricFamilySamples& family : families) RenderFamily(family, out);
  return out;
}

}  // namespace obs
}  // namespace cfdprop
