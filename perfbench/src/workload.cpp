#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include <sched.h>

namespace perfbench {

unsigned os_workers(unsigned cap) {
  cpu_set_t set;
  unsigned cpus = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (cpus == 0) cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(cpus, cap);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

apps::knapsack::Instance knapsack_instance(std::uint64_t seed) {
  return apps::knapsack::make_instance(kKnapsackItems, mix_seed(seed, 1));
}

st::RuntimeStats RuntimeWorkload::settled_stats() const {
  st::RuntimeStats s = rt_->stats();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const st::RuntimeStats t = rt_->stats();
    if (std::memcmp(&s, &t, sizeof s) == 0) break;
    s = t;
  }
  return s;
}

void RuntimeWorkload::after_rep() {
  const st::RuntimeStats now = settled_stats();
  st::RuntimeStats d = now;
  auto sub = [&](std::uint64_t st::RuntimeStats::*f) { d.*f = now.*f - last_.*f; };
  for (auto f : {&st::RuntimeStats::forks, &st::RuntimeStats::suspends,
                 &st::RuntimeStats::resumes, &st::RuntimeStats::steals_received,
                 &st::RuntimeStats::steal_attempts, &st::RuntimeStats::steals_rejected,
                 &st::RuntimeStats::tasks_completed, &st::RuntimeStats::heap_fallbacks,
                 &st::RuntimeStats::io_wakeups, &st::RuntimeStats::io_events,
                 &st::RuntimeStats::io_migrations}) {
    sub(f);
  }
  deltas_.push_back(d);
  last_ = now;
}

double RuntimeWorkload::counter_median(std::uint64_t st::RuntimeStats::*field) const {
  std::vector<double> v;
  for (const auto& d : deltas_) v.push_back(static_cast<double>(d.*field));
  return median(std::move(v));
}

}  // namespace perfbench
