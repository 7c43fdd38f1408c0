#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

/// Nearest-rank quantile of an ascending sample, p in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

void Tracer::record(const SpanRecord& s) {
  std::lock_guard<std::mutex> g(mu_);
  const bool request = s.req >= 0;
  if (request ? request_spans_ >= kMaxRequestSpans
              : spans_.size() - request_spans_ >= kMaxSpans) {
    ++dropped_;
    return;
  }
  request_spans_ += request ? 1 : 0;
  spans_.push_back(s);
}

double Tracer::quantile_ns(const char* name, double p) const {
  std::vector<double> d;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        d.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                    static_cast<double>(std::max<std::uint64_t>(s.count, 1)));
      }
    }
  }
  if (d.empty()) return std::nan("");
  if (p == 0.5) return median(std::move(d));
  std::sort(d.begin(), d.end());
  return quantile_sorted(d, p);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%zu},\"traceEvents\":[",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::uint64_t start = s.start_ns - t0;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%ld,\"count\":%llu}}",
                 i == 0 ? "" : ",", s.name, static_cast<double>(start) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 s.req, static_cast<unsigned long long>(s.count));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
