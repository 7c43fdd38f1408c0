// fork_fib: fib(kFibN) with an st::fork at every internal node, on one
// worker.  The fork path (closure, stacklet, context switch, JoinCounter)
// does nearly all the work; there are no steals and no io.
#include "apps/fib.hpp"
#include "checks.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

class ForkFib final : public RuntimeWorkload {
 public:
  void setup(std::uint64_t) override {
    Span s(tracer, "runtime.construct", rep_span);
    rt_ = std::make_unique<st::Runtime>(1);
  }

  void rep(Outcome& out) override {
    long r = 0;
    {
      Span s(tracer, "fork_fib.run", rep_span);
      s.set_count(fib_forks(kFibN));
      rt_->run([&r] { r = apps::fib::run_st(kFibN); });
    }
    ++out.attempted;
    ++roots_;
    out.check(check_fib(kFibN, r));
  }

  void finish(Outcome& out) override {
    const st::RuntimeStats s = settled_stats();
    out.check(check_fork_counts(kFibN, roots_, s.forks, s.tasks_completed));
  }

  void layer_metrics(const Tracer&, Metrics& m) const override {
    m.push_back({"runtime.forks", counter_median(&st::RuntimeStats::forks), "count"});
    m.push_back({"runtime.tasks_completed", counter_median(&st::RuntimeStats::tasks_completed),
                 "count"});
    m.push_back({"runtime.region_high_water",
                 deltas_.empty() ? 0.0 : static_cast<double>(deltas_.back().region_high_water),
                 "slots"});
    m.push_back({"runtime.heap_fallbacks", counter_median(&st::RuntimeStats::heap_fallbacks),
                 "count"});
  }

 private:
  long roots_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fork_fib() { return std::make_unique<ForkFib>(); }

}  // namespace perfbench
