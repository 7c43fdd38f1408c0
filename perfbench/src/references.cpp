// Traced-run references: single runtime calls timed in calibrated loops,
// the sequential and cilkstyle timings of the same inputs, and the host
// calibration loop that tells host drift apart from a program change.
#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/magic.hpp"
#include "apps/nqueens.hpp"
#include "checks.hpp"
#include "cilk/cilkstyle.hpp"
#include "sync/join_counter.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {
volatile std::uint64_t calib_sink;  ///< keeps the calibration loop from being folded away
}  // namespace

double host_calibration(Tracer* tr) {
  Span s(tr, "host.calib");
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x2545f4914f6cdd1dULL, acc = 0;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  calib_sink = acc;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void runtime_probes(Tracer& tr, Metrics& out) {
  for (int i = 0; i < 5; ++i) {
    Span s(&tr, "runtime.construct_destroy");
    st::Runtime rt(os_workers(4));
  }
  {
    st::Runtime rt(os_workers(4));
    rt.run([] {});
    for (int i = 0; i < 200; ++i) {
      Span s(&tr, "runtime.run_empty");
      rt.run([] {});
    }
  }
  {
    st::Runtime rt(1);
    auto loop = [&rt](long k) {
      rt.run([k] {
        for (long i = 0; i < k; ++i) {
          st::JoinCounter jc(1);
          st::fork([&jc] { jc.finish(); });
          jc.join();
        }
      });
    };
    // Calibrate to loops of at least 20 ms, then time five of them.
    long k = 1024;
    for (;;) {
      const std::uint64_t t0 = now_ns();
      loop(k);
      if (now_ns() - t0 >= 20'000'000) break;
      k *= 2;
    }
    for (int i = 0; i < 5; ++i) {
      Span s(&tr, "runtime.fork_join");
      s.set_count(static_cast<std::uint64_t>(k));
      loop(k);
    }
  }
  out.push_back({"runtime.fork_join_ns", tr.median_ns("runtime.fork_join"), "ns"});
  out.push_back({"runtime.construct_ms", tr.median_ns("runtime.construct_destroy") / 1e6, "ms"});
  out.push_back({"runtime.run_empty_us", tr.median_ns("runtime.run_empty") / 1e3, "us"});
}

void reference_timings(Tracer& tr, std::uint64_t seed, Metrics& out, Outcome& checks) {
  const apps::knapsack::Instance inst = knapsack_instance(seed);
  const long knap_dp = knapsack_dp(inst);
  {
    Span s(&tr, "apps.fib_seq");
    checks.check(check_fib(kFibN, apps::fib::seq(kFibN)));
  }
  {
    Span s(&tr, "apps.magic_seq");
    checks.check(check_magic(apps::magic::seq(kMagicLimit)));
  }
  {
    Span s(&tr, "apps.nqueens_seq");
    checks.check(check_nqueens(kQueensN, apps::nqueens::seq(kQueensN)));
  }
  {
    Span s(&tr, "apps.knapsack_seq");
    checks.check(check_knapsack(apps::knapsack::seq(inst), knap_dp));
  }
  // Same worker counts as the workloads: fib on one, the searches on
  // min(CPUs, 4).
  long r = 0;
  {
    ck::Runtime ck(1);
    Span s(&tr, "cilk.fib");
    ck.run([&r] { r = apps::fib::run_ck(kFibN); });
    checks.check(check_fib(kFibN, r));
  }
  {
    ck::Runtime ck(os_workers(4));
    {
      Span s(&tr, "cilk.magic");
      ck.run([&r] { r = apps::magic::run_ck(kMagicLimit); });
      checks.check(check_magic(r));
    }
    {
      Span s(&tr, "cilk.nqueens");
      ck.run([&r] { r = apps::nqueens::run_ck(kQueensN); });
      checks.check(check_nqueens(kQueensN, r));
    }
    {
      Span s(&tr, "cilk.knapsack");
      ck.run([&r, &inst] { r = apps::knapsack::run_ck(inst); });
      checks.check(check_knapsack(r, knap_dp));
    }
  }
  for (const char* name : {"apps.fib_seq", "apps.magic_seq", "apps.nqueens_seq",
                           "apps.knapsack_seq", "cilk.fib", "cilk.magic", "cilk.nqueens",
                           "cilk.knapsack"}) {
    out.push_back({std::string(name) + "_s", tr.median_ns(name) / 1e9, "s"});
  }
}

}  // namespace perfbench
