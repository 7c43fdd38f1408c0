// Live metrics: the second observability pillar, alongside the trace
// rings (util/trace_ring.hpp).
//
// Tracing answers "what happened, in order" after the fact; the metrics
// layer answers "what is the runtime doing right now and where is the
// time going" while the process runs: relaxed-atomic counters, gauges
// and log-bucket latency histograms per worker, aggregated into a JSON
// snapshot on demand (ST_METRICS=path, periodic with
// ST_METRICS_PERIOD_MS, and on crash/stall dumps -- see
// docs/OBSERVABILITY.md).
//
// Design constraints mirror the tracing layer:
//   1. Disabled cost ~ zero.  Timed instrumentation sites (steal latency,
//      suspend->resume latency, deque-depth sampling) gate on
//      metrics_enabled(): one relaxed load + predictable branch, priced
//      by BM_MetricsFlagCheck in bench_micro_primitives.
//   2. Single writer, racy readers.  A histogram belongs to one worker;
//      record() is a few relaxed atomic load/stores.  Snapshots read the
//      same atomics relaxed, so a concurrent snapshot sees a consistent-
//      enough view (each bucket individually exact; cross-bucket skew of
//      a few events) without any locking on the hot path.
//   3. One percentile implementation.  HistogramSnapshot::summarize()
//      feeds bucket midpoints + counts into stu::summarize_weighted()
//      (util/stats.hpp) -- the same math the bench tables use.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace stu {

// ---------------------------------------------------------------------
// Process-wide enablement / configuration
// ---------------------------------------------------------------------

/// Global flag; zero-initialized (off) before dynamic init, so hooks are
/// safe arbitrarily early.  Set by metrics_configure_from_env() (when
/// ST_METRICS / ST_METRICS_PERIOD_MS / ST_STATS request it) or
/// programmatically via metrics_set_enabled().
extern std::atomic<bool> g_metrics_enabled;

inline bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
void metrics_set_enabled(bool on) noexcept;

/// Reads ST_METRICS / ST_METRICS_PERIOD_MS / ST_STALL_MS / ST_STATS once
/// per process (idempotent; called by the Runtime and Vm constructors).
/// When ST_METRICS is set, registers an atexit snapshot writer and
/// installs the fatal-signal dump handlers (crash_handlers_install).
void metrics_configure_from_env();

/// The ST_METRICS output path ("" when unset).
const std::string& metrics_path();

/// ST_METRICS_PERIOD_MS (0 when unset): cadence of periodic snapshots
/// written by the runtime monitor thread.
long metrics_period_ms();

/// ST_STALL_MS (0 when unset): the monitor's stall-watchdog threshold.
long metrics_stall_ms();

// ---------------------------------------------------------------------
// Fatal-signal dumps
// ---------------------------------------------------------------------

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers (idempotent) that run
/// every registered crash hook -- flushing trace rings and writing the
/// ST_TRACE / ST_METRICS files plus the runtime introspection dump --
/// then re-raise with the default disposition.  Best effort: the hooks
/// are not async-signal-safe in the strict sense, but the process is
/// dying anyway and a truncated trace beats none (the motivating bug:
/// ST_TRACE output used to exist only on clean exit).
void crash_handlers_install();

/// Adds a hook run on fatal signals (bounded table; extra adds are
/// dropped).  Hooks must tolerate running on any thread at any time.
void crash_add_hook(void (*fn)());

/// Runs all registered crash hooks (what the signal handler does);
/// callable directly from a stall dump or a test.
void crash_run_hooks();

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/// Monotonic counter.  Single writer (relaxed load+store: no lock
/// prefix on the bump); any thread may read.
struct Counter {
  std::atomic<std::uint64_t> v{0};
  void add(std::uint64_t d = 1) noexcept {
    v.store(v.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept { return v.load(std::memory_order_relaxed); }
};

/// One named counter value, as the runtime and STVM counter tables render
/// them.
using CounterRow = std::pair<const char*, std::uint64_t>;
/// `"counters":{"k":v,...}`: a provider's ST_METRICS counters member.
std::string counters_json(const std::vector<CounterRow>& rows);
/// ` k=v k=v ...`: the fields of an ST_STATS row.
std::string counters_flat(const std::vector<CounterRow>& rows);

/// Point-in-time value (deque depth, phase, occupancy).
struct Gauge {
  std::atomic<std::int64_t> v{0};
  void set(std::int64_t x) noexcept { v.store(x, std::memory_order_relaxed); }
  std::int64_t get() const noexcept { return v.load(std::memory_order_relaxed); }
};

class LogHistogram;

/// Plain-data copy of a histogram at one instant; mergeable across
/// workers and renderable to JSON.
struct HistogramSnapshot {
  static constexpr std::size_t kLinear = 16;      ///< exact buckets 0..15
  static constexpr std::size_t kSubBuckets = 4;   ///< per octave above
  static constexpr std::size_t kBuckets = kLinear + (64 - 4) * kSubBuckets;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< valid when count > 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void merge(const HistogramSnapshot& other);

  /// Percentiles over bucket midpoints via stu::summarize_weighted (the
  /// single shared quantile implementation); mean/min/max are exact.
  Summary summarize() const;

  /// One JSON object: {"name":..,"unit":..,"count":..,"min":..,"max":..,
  /// "mean":..,"p50":..,"p90":..,"p99":..,"buckets":[[lo,hi,n],..]}.
  /// Recorded values are multiplied by `scale` (tick -> ns conversion);
  /// only non-empty buckets are listed.
  std::string to_json(const std::string& name, const char* unit,
                      double scale = 1.0) const;
};

/// Log-bucket histogram of non-negative 64-bit samples: values 0..15 get
/// exact buckets; above that, 4 sub-buckets per power of two, so the
/// relative quantization error is at most ~12.5%.  record() is the only
/// writer-side operation and is lock-free (a handful of relaxed atomic
/// ops on the owner's cache lines).
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index of a value (total order, exhaustive over uint64).
  static std::size_t bucket_of(std::uint64_t v) noexcept;
  /// Inclusive value range [bucket_lo(b), bucket_hi(b)] of bucket b.
  static std::uint64_t bucket_lo(std::size_t b) noexcept;
  static std::uint64_t bucket_hi(std::size_t b) noexcept;

  /// Writer only (owner worker).
  void record(std::uint64_t v) noexcept {
    auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t d) {
      c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
    };
    bump(buckets_[bucket_of(v)], 1);
    bump(count_, 1);
    bump(sum_, v);
    if (v < min_.load(std::memory_order_relaxed)) {
      min_.store(v, std::memory_order_relaxed);
    }
    if (v > max_.load(std::memory_order_relaxed)) {
      max_.store(v, std::memory_order_relaxed);
    }
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

  /// Any thread (relaxed reads; see header comment on consistency).
  HistogramSnapshot snapshot() const;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------------
// Registry / snapshot export
// ---------------------------------------------------------------------

/// Process-global registry of metric *providers*.  A provider is a
/// subsystem (one st::Runtime, one stvm::Vm) that renders its own
/// section of the snapshot as a JSON object.  Providers register at
/// construction and unregister at destruction; unregistration captures
/// one final render, so an ST_METRICS snapshot written at process exit
/// still contains the numbers of every runtime that already shut down.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  using Render = std::function<std::string()>;  ///< returns a JSON object

  /// Registers a provider; returns a handle for remove_provider.
  int add_provider(Render fn);

  /// Unregisters, rendering one last time into the retained list.
  void remove_provider(int id);

  /// The full snapshot document (schema "stmp-metrics-v1"): live
  /// providers rendered now, plus the retained finals.
  std::string snapshot_json();

  /// Renders and writes a snapshot; returns false on I/O failure.
  bool write_snapshot(const std::string& path);

  /// Crash-path variant: skips (returns false) instead of blocking if the
  /// registry lock is held by the interrupted thread.
  bool try_write_snapshot(const std::string& path);

  /// Drops retained finals (tests).
  void clear_retained();

 private:
  MetricsRegistry() = default;
};

/// JSON string escaping for snapshot renderers.
std::string json_escape(const std::string& s);

}  // namespace stu
