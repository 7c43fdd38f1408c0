// The interface every workload implements, the fixed input sizes, and
// the helpers that turn the runtime's public counters into per-layer
// metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/knapsack.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"

namespace perfbench {

// Input sizes (README.md, "Workloads and inputs").  Each is sized so one repetition
// takes tenths of a second or more: shorter cells do not repeat between
// processes on a shared host.
constexpr int kFibN = 32;            ///< fork_fib and the fib references
constexpr int kMagicLimit = 16;      ///< full 4x4 magic-square count
constexpr int kQueensN = 14;
constexpr int kKnapsackItems = 32;
constexpr long kEchoConns = 128;     ///< client connections, one thread each
constexpr long kEchoRequests = 1500;  ///< per connection
constexpr std::size_t kEchoPayload = 32;
constexpr int kPfibN = 30;
constexpr unsigned kStvmWorkers = 4;  ///< virtual workers of the STVM

/// OS workers: min(available CPUs, cap).
unsigned os_workers(unsigned cap);

/// SplitMix64: derives every seeded input from the run's --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The knapsack instance of steal_search and of its references.
apps::knapsack::Instance knapsack_instance(std::uint64_t seed);

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::string error;  ///< first wrong output; empty while all are right

  void check(std::string why) {
    if (error.empty() && !why.empty()) error = std::move(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the Runtime or Vm and the inputs; timed as set-up.
  virtual void setup(std::uint64_t seed) = 0;
  /// One repetition of the workload's fixed batch of work.  Every
  /// repetition attempts the same operations.
  virtual void rep(Outcome& out) = 0;
  /// Traced runs only, outside the repetition's timing: samples counters.
  virtual void after_rep() {}
  /// Checks over the whole run, after the last repetition.
  virtual void finish(Outcome&) {}
  /// Traced runs: per-layer metrics from the spans and public counters.
  virtual void layer_metrics(const Tracer&, Metrics&) const {}

  /// Set for traced runs (spans are recorded under `rep_span`).
  Tracer* tracer = nullptr;
  std::uint64_t rep_span = 0;
};

/// A workload on the native runtime: samples Runtime::stats() after every
/// traced repetition and reports the median per-repetition delta.
class RuntimeWorkload : public Workload {
 public:
  void after_rep() override;

 protected:
  /// Runtime::stats() read until two reads 10 ms apart agree.  One read
  /// can return stale counters (even all zeros): Worker::poll_slow clears
  /// the sample bit before it publishes the mirror, and stats() stops
  /// waiting as soon as it sees the bit clear.
  st::RuntimeStats settled_stats() const;
  /// Median over traced repetitions of one counter's per-repetition delta.
  double counter_median(std::uint64_t st::RuntimeStats::*field) const;

  std::unique_ptr<st::Runtime> rt_;
  st::RuntimeStats last_{};
  std::vector<st::RuntimeStats> deltas_;
};

std::unique_ptr<Workload> make_fork_fib();
std::unique_ptr<Workload> make_steal_search();
std::unique_ptr<Workload> make_io_echo();
std::unique_ptr<Workload> make_stvm_pfib();

/// Traced runs: probes of single runtime calls, the sequential and
/// cilkstyle reference timings, and the host calibration loop.
void runtime_probes(Tracer& tr, Metrics& out);
/// Reference outputs are checked into `checks` like the workloads' own.
void reference_timings(Tracer& tr, std::uint64_t seed, Metrics& out, Outcome& checks);
/// A fixed plain arithmetic loop, recorded as a "host.calib" span when
/// `tr` is set.  Returns its time in ms.
double host_calibration(Tracer* tr);

}  // namespace perfbench
