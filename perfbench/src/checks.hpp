// Correctness checks for every workload, computed apart from the code
// under test.  Each check_* returns an empty string when the outputs are
// right and a one-line diagnostic otherwise; tests/checks_test.cpp feeds
// each one a wrong value and expects the diagnostic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "apps/knapsack.hpp"

namespace perfbench {

/// fib(n) by iteration.
long fib_iter(int n);

/// Forks made by apps::fib::run_st(n): one per internal node of the call
/// tree, forks(n) = 1 + forks(n-1) + forks(n-2) = fib(n+1) - 1.
std::uint64_t fib_forks(int n);

/// Number of 4x4 magic squares (numbers 1..16, line sum 34).
constexpr long kMagicSquares4x4 = 7040;

/// Solutions of the n-queens problem, OEIS A000170 (n <= 16); -1 beyond.
long nqueens_solutions(int n);

/// Exact 0/1 knapsack optimum by dynamic programming over capacities.
long knapsack_dp(const apps::knapsack::Instance& inst);

std::string check_fib(int n, long result);
/// The runtime's fork and completed-task counts over `roots` root runs of
/// apps::fib::run_st(n): fib_forks(n) forks per run, and every forked
/// child plus each run's root completes.
std::string check_fork_counts(int n, long roots, std::uint64_t forks,
                              std::uint64_t tasks_completed);

std::string check_magic(long count);
std::string check_nqueens(int n, long count);
std::string check_knapsack(long best, long dp_best);

/// One echo: the reply must equal the request byte for byte.
std::string check_echo(const unsigned char* request, const unsigned char* reply,
                       std::size_t n);

/// Totals of an echo repetition: every attempted request completed, and
/// the bytes the server echoed (counted on the server side) equal the
/// bytes the clients sent (counted on the client side).
std::string check_echo_totals(long attempted, long completed, std::size_t payload,
                              std::uint64_t client_sent, std::uint64_t server_echoed);

/// STVM pfib(n) under the threaded engine and the JIT.
std::string check_stvm(int n, long threaded_result, long jit_result,
                       std::uint64_t threaded_instructions, std::uint64_t jit_instructions);

}  // namespace perfbench
