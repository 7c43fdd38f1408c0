#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace perfbench {

namespace {

std::string mismatch(const char* what, long long got, long long want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " + std::to_string(want);
}

}  // namespace

long fib_iter(int n) {
  long a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const long next = a + b;
    a = b;
    b = next;
  }
  return a;
}

std::uint64_t fib_forks(int n) {
  return n < 2 ? 0 : static_cast<std::uint64_t>(fib_iter(n + 1)) - 1;
}

long nqueens_solutions(int n) {
  static constexpr long kA000170[] = {1,     1,      0,       0,       2,        10,
                                      4,     40,     92,      352,     724,      2680,
                                      14200, 73712,  365596,  2279184, 14772512};
  if (n < 0 || n >= static_cast<int>(std::size(kA000170))) return -1;
  return kA000170[n];
}

long knapsack_dp(const apps::knapsack::Instance& inst) {
  if (inst.capacity < 0) return 0;
  std::vector<long> best(static_cast<std::size_t>(inst.capacity) + 1, 0);
  for (const auto& it : inst.items) {
    for (long c = inst.capacity; c >= it.weight; --c) {
      const auto ci = static_cast<std::size_t>(c);
      best[ci] = std::max(best[ci], best[ci - static_cast<std::size_t>(it.weight)] + it.value);
    }
  }
  return best.back();
}

std::string check_fib(int n, long result) {
  return result == fib_iter(n) ? std::string() : mismatch("fib result", result, fib_iter(n));
}

std::string check_fork_counts(int n, long roots, std::uint64_t forks,
                              std::uint64_t tasks_completed) {
  const std::uint64_t want = static_cast<std::uint64_t>(roots) * fib_forks(n);
  if (forks != want) {
    return mismatch("Runtime::stats().forks", static_cast<long long>(forks),
                    static_cast<long long>(want));
  }
  // Every forked child completes, and so does each run's root thread.
  if (tasks_completed != forks + static_cast<std::uint64_t>(roots)) {
    return mismatch("Runtime::stats().tasks_completed", static_cast<long long>(tasks_completed),
                    static_cast<long long>(forks) + roots);
  }
  return {};
}

std::string check_magic(long count) {
  return count == kMagicSquares4x4 ? std::string() : mismatch("magic squares", count, kMagicSquares4x4);
}

std::string check_nqueens(int n, long count) {
  const long want = nqueens_solutions(n);
  if (want < 0) return "nqueens: no reference count for n=" + std::to_string(n);
  return count == want ? std::string() : mismatch("nqueens solutions", count, want);
}

std::string check_knapsack(long best, long dp_best) {
  return best == dp_best ? std::string() : mismatch("knapsack optimum", best, dp_best);
}

std::string check_echo(const unsigned char* request, const unsigned char* reply, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (request[i] != reply[i]) {
      return "echo byte " + std::to_string(i) + ": got " + std::to_string(reply[i]) + ", want " +
             std::to_string(request[i]);
    }
  }
  return {};
}

std::string check_echo_totals(long attempted, long completed, std::size_t payload,
                              std::uint64_t client_sent, std::uint64_t server_echoed) {
  if (completed != attempted) return mismatch("completed echo requests", completed, attempted);
  const std::uint64_t want = static_cast<std::uint64_t>(completed) * payload;
  if (client_sent != want) {
    return mismatch("bytes sent by clients", static_cast<long long>(client_sent),
                    static_cast<long long>(want));
  }
  if (server_echoed != client_sent) {
    return mismatch("bytes echoed by the server", static_cast<long long>(server_echoed),
                    static_cast<long long>(client_sent));
  }
  return {};
}

std::string check_stvm(int n, long threaded_result, long jit_result,
                       std::uint64_t threaded_instructions, std::uint64_t jit_instructions) {
  const long want = fib_iter(n);
  if (threaded_result != want) return mismatch("stvm pfib (threaded)", threaded_result, want);
  if (jit_result != want) return mismatch("stvm pfib (jit)", jit_result, want);
  if (threaded_instructions != jit_instructions) {
    return mismatch("stvm instructions retired (jit vs threaded)",
                    static_cast<long long>(jit_instructions),
                    static_cast<long long>(threaded_instructions));
  }
  return {};
}

}  // namespace perfbench
