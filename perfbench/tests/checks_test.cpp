// Every correctness check of the benchmark accepts the right value and
// rejects a wrong one.  Run with `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <cstring>
#include <string>

#include "checks.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void passes(const std::string& why, const char* what) {
  expect(why.empty(), what);
  if (!why.empty()) std::fprintf(stderr, "      diagnostic: %s\n", why.c_str());
}

void fails(const std::string& why, const char* what) { expect(!why.empty(), what); }

}  // namespace

int main() {
  using namespace perfbench;

  // The references themselves.
  expect(fib_iter(0) == 0 && fib_iter(1) == 1 && fib_iter(32) == 2178309, "fib_iter");
  // fib(4) forks at the internal nodes 4, 3 and the two 2s: four forks.
  expect(fib_forks(4) == 4 && fib_forks(1) == 0 && fib_forks(32) == 3524577, "fib_forks");
  expect(nqueens_solutions(8) == 92 && nqueens_solutions(14) == 365596, "A000170");
  expect(nqueens_solutions(40) == -1, "A000170 beyond the table");
  const apps::knapsack::Instance tiny{{{60, 10}, {100, 20}, {120, 30}}, 50};
  expect(knapsack_dp(tiny) == 220, "knapsack_dp on the textbook instance");
  const apps::knapsack::Instance inst = apps::knapsack::make_instance(20, 7);
  expect(knapsack_dp(inst) == apps::knapsack::seq(inst), "knapsack_dp matches branch-and-bound");

  // fork_fib
  passes(check_fib(32, 2178309), "fib right");
  fails(check_fib(32, 2178310), "fib off by one");
  passes(check_fork_counts(32, 3, 3 * 3524577ULL, 3 * 3524577ULL + 3), "fork counts right");
  fails(check_fork_counts(32, 3, 3 * 3524577ULL - 1, 3 * 3524577ULL + 2), "one fork missing");
  fails(check_fork_counts(32, 3, 3 * 3524577ULL, 3 * 3524577ULL + 2), "one task not completed");
  fails(check_fork_counts(32, 3, 3 * 3524577ULL, 3 * 3524577ULL), "roots not counted");

  // steal_search
  passes(check_magic(7040), "magic right");
  fails(check_magic(7039), "magic off by one");
  passes(check_nqueens(14, 365596), "nqueens right");
  fails(check_nqueens(14, 365597), "nqueens off by one");
  fails(check_nqueens(40, 0), "nqueens without a reference");
  passes(check_knapsack(knapsack_dp(inst), knapsack_dp(inst)), "knapsack right");
  fails(check_knapsack(knapsack_dp(inst) - 1, knapsack_dp(inst)), "knapsack below the optimum");

  // io_echo
  unsigned char req[32], rep[32];
  for (int i = 0; i < 32; ++i) req[i] = static_cast<unsigned char>(i * 7 + 1);
  std::memcpy(rep, req, sizeof req);
  passes(check_echo(req, rep, sizeof req), "echo right");
  rep[31] ^= 0x10;
  fails(check_echo(req, rep, sizeof req), "echo with a corrupted byte");
  passes(check_echo_totals(100, 100, 32, 3200, 3200), "echo totals right");
  fails(check_echo_totals(100, 99, 32, 3168, 3168), "a request did not complete");
  fails(check_echo_totals(100, 100, 32, 3199, 3199), "client sent one byte short");
  fails(check_echo_totals(100, 100, 32, 3200, 3201), "server echoed an extra byte");

  // stvm_pfib
  passes(check_stvm(30, 832040, 832040, 172322282, 172322282), "stvm right");
  fails(check_stvm(30, 832041, 832040, 172322282, 172322282), "threaded result off by one");
  fails(check_stvm(30, 832040, 832039, 172322282, 172322282), "jit result off by one");
  fails(check_stvm(30, 832040, 832040, 172322282, 172322283), "instruction counts differ");

  if (failures == 0) std::printf("perfbench checks: all passed\n");
  return failures == 0 ? 0 : 1;
}
