// Spans of the traced run, kept in memory and written out when the run
// ends.  A Span built on a null Tracer does nothing, so the untimed
// bookkeeping of untraced runs is one pointer test per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct SpanRecord {
  const char* name;  ///< static string
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  long req;              ///< echo request id, -1 elsewhere
  std::uint64_t count;   ///< operations covered; per-operation metrics divide by it
};

class Tracer {
 public:
  /// Bound memory (and the spans file) on long traced runs; spans past
  /// a cap are counted in dropped() and left out of every metric.  Spans
  /// that carry a request id are capped apart, so that however many
  /// requests a run samples, the run's other spans are all kept.
  static constexpr std::size_t kMaxSpans = 100000;
  static constexpr std::size_t kMaxRequestSpans = 250000;

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> g(mu_);
    return ++last_id_;
  }
  void record(const SpanRecord& s);

  /// Median of (end - start) / count over the spans named `name`, in ns;
  /// NaN when there is none.
  double median_ns(const char* name) const { return quantile_ns(name, 0.5); }
  /// Nearest-rank quantile p of the same durations.
  double quantile_ns(const char* name, double p) const;
  std::size_t dropped() const {
    std::lock_guard<std::mutex> g(mu_);
    return dropped_;
  }

  /// Chrome trace-event JSON ("X" events; args carry id, parent, req and
  /// count).  Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::size_t request_spans_ = 0;
  std::uint64_t last_id_ = 0;
  std::size_t dropped_ = 0;
};

class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t parent = 0, long req = -1)
      : t_(t), name_(name), parent_(parent), req_(req) {
    if (t_ != nullptr) {
      id_ = t_->next_id();
      start_ = now_ns();
    }
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  void set_count(std::uint64_t n) { count_ = n; }
  /// Closes the span early (idempotent).
  void end() {
    if (t_ == nullptr) return;
    t_->record({name_, start_, now_ns(), id_, parent_, req_, count_});
    t_ = nullptr;
  }
  /// Drops the span unrecorded.
  void discard() { t_ = nullptr; }

 private:
  Tracer* t_;
  const char* name_;
  std::uint64_t parent_;
  long req_;
  std::uint64_t id_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t count_ = 1;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Median (mean of the middle two for an even count).
double median(std::vector<double> v);

}  // namespace perfbench
