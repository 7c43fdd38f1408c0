// steal_search: the full 4x4 magic-square count, n-queens and knapsack
// branch-and-bound, back to back on one Runtime of min(CPUs, 4) workers.
// A few hundred forks with long fork-free leaves: the steal path (post,
// victim poll, serve, resume) and the idle path decide the time.
#include "apps/knapsack.hpp"
#include "apps/magic.hpp"
#include "apps/nqueens.hpp"
#include "checks.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

class StealSearch final : public RuntimeWorkload {
 public:
  void setup(std::uint64_t seed) override {
    {
      Span s(tracer, "runtime.construct", rep_span);
      rt_ = std::make_unique<st::Runtime>(os_workers(4));
    }
    inst_ = knapsack_instance(seed);
  }

  void rep(Outcome& out) override {
    long magic = 0, queens = 0, knap = 0;
    {
      Span s(tracer, "apps.magic", rep_span);
      rt_->run([&magic] { magic = apps::magic::run_st(kMagicLimit); });
    }
    {
      Span s(tracer, "apps.nqueens", rep_span);
      rt_->run([&queens] { queens = apps::nqueens::run_st(kQueensN); });
    }
    {
      Span s(tracer, "apps.knapsack", rep_span);
      rt_->run([this, &knap] { knap = apps::knapsack::run_st(inst_); });
    }
    out.attempted += 3;
    out.check(check_magic(magic));
    out.check(check_nqueens(kQueensN, queens));
    knapsack_results_.push_back(knap);
  }

  void finish(Outcome& out) override {
    const long dp = knapsack_dp(inst_);
    for (const long k : knapsack_results_) out.check(check_knapsack(k, dp));
  }

  void layer_metrics(const Tracer& tr, Metrics& m) const override {
    m.push_back({"apps.magic_s", tr.median_ns("apps.magic") / 1e9, "s"});
    m.push_back({"apps.nqueens_s", tr.median_ns("apps.nqueens") / 1e9, "s"});
    m.push_back({"apps.knapsack_s", tr.median_ns("apps.knapsack") / 1e9, "s"});
    const double attempts = counter_median(&st::RuntimeStats::steal_attempts);
    const double received = counter_median(&st::RuntimeStats::steals_received);
    m.push_back({"runtime.steal_attempts", attempts, "count"});
    m.push_back({"runtime.steals_received", received, "count"});
    m.push_back({"runtime.steals_rejected", counter_median(&st::RuntimeStats::steals_rejected),
                 "count"});
    m.push_back({"runtime.steal_hit_ratio", attempts > 0 ? received / attempts : 0.0, "ratio"});
  }

 private:
  apps::knapsack::Instance inst_;
  std::vector<long> knapsack_results_;
};

}  // namespace

std::unique_ptr<Workload> make_steal_search() { return std::make_unique<StealSearch>(); }

}  // namespace perfbench
