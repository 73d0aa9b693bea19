// Observability primitives: named counters, gauges, and log-bucketed
// latency histograms behind a MetricsRegistry that renders Prometheus-
// style text exposition.
//
// Hot-path discipline matches EngineStats: every Record()/Add() is a
// relaxed atomic fetch_add — no locks, no CAS loops (histogram value
// sums accumulate in integer nanoseconds precisely so `atomic<double>`
// CAS retries never appear on the serving path). Registration (Get*)
// takes a mutex and is meant for setup/open paths only; the returned
// handles stay valid for the registry's lifetime, and re-registering
// the same name+labels returns the same handle, so a tenant that is
// dropped and re-opened keeps accumulating the same monotone series.
//
// Histogram buckets are fixed at construction: power-of-two microsecond
// upper bounds 1us, 2us, 4us, ... 2^24us (~16.8s), plus +Inf. Fixed
// boundaries keep Record() branch-free of allocation and make quantile
// interpolation deterministic — the unit tests compute expected
// p50/p95/p99 by hand from the same bounds.
//
// Snapshot semantics: HistogramSnapshot derives `count` from the very
// bucket values it read, so "sum of buckets == count" holds in every
// snapshot by construction even while writers race; counters are
// monotone, so consecutive renders can only move values up.

#ifndef CFDPROP_OBS_METRICS_H_
#define CFDPROP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cfdprop {
namespace obs {

/// Finite latency buckets: upper bounds 2^0 .. 2^24 microseconds.
inline constexpr size_t kFiniteLatencyBuckets = 25;
/// Finite buckets plus the +Inf overflow bucket.
inline constexpr size_t kLatencyBuckets = kFiniteLatencyBuckets + 1;

/// One histogram's state at a point in time. `buckets` are per-bucket
/// (non-cumulative) counts; `count` is their sum — equal by
/// construction, never torn apart by concurrent writers.
struct HistogramSnapshot {
  std::array<uint64_t, kLatencyBuckets> buckets{};
  uint64_t count = 0;
  double sum_us = 0;

  /// Upper bound of finite bucket `i` in microseconds (2^i).
  static double BucketUpperBoundUs(size_t i) {
    return std::ldexp(1.0, static_cast<int>(i));
  }

  /// Quantile estimate by linear interpolation inside the target
  /// bucket: with `target = q * count` ranks, the answer lies
  /// `(target - ranks_below) / bucket_count` of the way between the
  /// bucket's lower and upper bound. Values landing in +Inf clamp to
  /// the largest finite bound. Deterministic given the recorded set.
  double Quantile(double q) const;
};

/// Monotone counter. Add/Increment are single relaxed fetch_adds.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge (atomic store, no CAS).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed latency histogram. Record() is lock-free: one bucket
/// fetch_add plus one sum fetch_add (nanoseconds, so the sum is a plain
/// integer add).
class Histogram {
 public:
  Histogram() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  void Record(double us) {
    sum_ns_.fetch_add(ToNanos(us), std::memory_order_relaxed);
    buckets_[BucketFor(us)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Smallest bucket whose upper bound admits `us`. Exact powers of two
  /// land in their own bucket (4us -> le=4, not le=8).
  static size_t BucketFor(double us) {
    if (!(us > 1.0)) return 0;  // also absorbs NaN and negatives
    int exp = 0;
    const double mantissa = std::frexp(us, &exp);  // us = m * 2^exp
    size_t idx = static_cast<size_t>(mantissa == 0.5 ? exp - 1 : exp);
    return idx < kFiniteLatencyBuckets ? idx : kLatencyBuckets - 1;
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum_us =
        static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1000.0;
    return s;
  }

 private:
  static uint64_t ToNanos(double us) {
    return us > 0 ? static_cast<uint64_t>(us * 1000.0 + 0.5) : 0;
  }

  std::array<std::atomic<uint64_t>, kLatencyBuckets> buckets_;
  std::atomic<uint64_t> sum_ns_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

std::string_view MetricTypeName(MetricType type);

/// Ordered label set; rendered as {k1="v1",k2="v2"} in declaration
/// order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// One rendered series: a scalar value for counters/gauges, a full
/// snapshot for histograms.
struct Sample {
  LabelSet labels;
  double value = 0;
  std::optional<HistogramSnapshot> histogram;
};

/// A family (one name, one type) and its series, as produced by a
/// collector callback at render time.
struct MetricFamilySamples {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  std::vector<Sample> samples;
};

/// Owns registered metrics and renders them (plus any collector-
/// supplied families) as text exposition. Thread-safe; Get* handles
/// remain valid until the registry is destroyed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Idempotent: the same name+labels returns the same handle. A name
  /// reused with a different metric type returns nullptr.
  Counter* GetCounter(std::string_view name, std::string_view help,
                      LabelSet labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  LabelSet labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          LabelSet labels = {});

  /// Registers a render-time callback contributing whole families
  /// (e.g. a service exporting an existing stats snapshot). Returns an
  /// id for RemoveCollector — anything whose lifetime is shorter than
  /// the registry's MUST remove its collector before dying.
  size_t AddCollector(std::function<std::vector<MetricFamilySamples>()> fn);
  void RemoveCollector(size_t id);

  /// Prometheus-style text exposition: families sorted by name,
  /// series sorted by label string; `# HELP`/`# TYPE` per family;
  /// histograms expand to cumulative `_bucket{le=...}` series plus
  /// `_sum` and `_count`. Each metric is read exactly once per render.
  std::string RenderText() const;

 private:
  struct Child {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, Child> children;  // keyed by rendered label text
  };

  Family* FamilyFor(std::string_view name, std::string_view help,
                    MetricType type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::map<size_t, std::function<std::vector<MetricFamilySamples>()>>
      collectors_;
  size_t next_collector_id_ = 1;
};

/// Renders one label set as it appears in exposition text (no braces):
/// `k1="v1",k2="v2"` with `\\`, `"`, and newline escaped.
std::string RenderLabels(const LabelSet& labels);

}  // namespace obs
}  // namespace cfdprop

#endif  // CFDPROP_OBS_METRICS_H_
