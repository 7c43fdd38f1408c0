// Thread migration on the STVM: multiple virtual workers, deterministic
// interleavings (the quantum/seed fully determine the schedule), the
// Figure 9/10/12 polling steal protocol with the Figure 9 two-suspend
// dance, and cross-stack frame links -- validated per instruction.
#include "stvm/vm.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "counters_json.hpp"
#include "stvm/asm.hpp"
#include "stvm/programs.hpp"

namespace {

using namespace stvm;

struct Schedule {
  unsigned workers;
  int quantum;
  std::uint64_t seed;
};

class MigrationTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(MigrationTest, ParallelFibCorrectUnderMigration) {
  const auto& s = GetParam();
  VmConfig cfg;
  cfg.workers = s.workers;
  cfg.quantum = s.quantum;
  cfg.steal_seed = s.seed;
  cfg.validate = true;
  Vm vm(programs::compile(programs::pfib()), cfg);
  EXPECT_EQ(vm.run("pmain", {14}), 377);
}

INSTANTIATE_TEST_SUITE_P(Schedules, MigrationTest,
                         ::testing::Values(Schedule{2, 64, 1}, Schedule{2, 16, 2},
                                           Schedule{2, 1, 3}, Schedule{3, 32, 4},
                                           Schedule{4, 8, 5}, Schedule{4, 64, 6},
                                           Schedule{3, 5, 7}, Schedule{2, 128, 8}));

TEST(Migration, StealsActuallyHappen) {
  VmConfig cfg;
  cfg.workers = 4;
  cfg.quantum = 8;  // aggressive interleaving: polls and idle steps mix
  cfg.validate = true;
  Vm vm(programs::compile(programs::pfib()), cfg);
  EXPECT_EQ(vm.run("pmain", {16}), 987);
  EXPECT_GT(vm.stats().steals_served, 0u)
      << "a 4-worker run of pfib(16) should migrate at least one thread";
  EXPECT_GT(vm.stats().suspends, 0u);
  EXPECT_GT(vm.stats().restarts, 0u);

  // The ST_METRICS "counters" object renders every VmStats field under
  // its established key (spelled out, so a rename fails here).
  const std::pair<const char*, std::uint64_t VmStats::*> keys[] = {
      {"instructions", &VmStats::instructions},
      {"suspends", &VmStats::suspends},
      {"restarts", &VmStats::restarts},
      {"resumes", &VmStats::resumes},
      {"steals_served", &VmStats::steals_served},
      {"steals_rejected", &VmStats::steals_rejected},
      {"frames_unwound", &VmStats::frames_unwound},
      {"shrink_reclaimed", &VmStats::shrink_reclaimed},
      {"retired_marks_seen", &VmStats::retired_marks_seen},
      {"trampolines_taken", &VmStats::trampolines_taken},
  };
  static_assert(std::size(keys) == sizeof(VmStats) / sizeof(std::uint64_t));
  const std::string json = vm.metrics_json();
  const auto counters = test_util::parse_counters(json);
  EXPECT_EQ(counters.size(), std::size(keys)) << json;
  for (const auto& [key, field] : keys) {
    const auto it = counters.find(key);
    ASSERT_NE(it, counters.end()) << "no \"" << key << "\" in " << json;
    EXPECT_EQ(it->second, vm.stats().*field) << key;
  }
}

TEST(Migration, ShrinkReclaimsMigratedFrames) {
  VmConfig cfg;
  cfg.workers = 3;
  cfg.quantum = 8;
  cfg.validate = true;
  Vm vm(programs::compile(programs::pfib()), cfg);
  vm.run("pmain", {16});
  if (vm.stats().steals_served > 0) {
    // Migrated threads exported frames on the victim; their retirement
    // marks must eventually be reclaimed by shrink.
    EXPECT_GT(vm.stats().shrink_reclaimed, 0u);
  }
}

TEST(Migration, DeterministicForFixedSchedule) {
  auto run_once = [](std::uint64_t seed) {
    VmConfig cfg;
    cfg.workers = 3;
    cfg.quantum = 8;
    cfg.steal_seed = seed;
    Vm vm(programs::compile(programs::pfib()), cfg);
    vm.run("pmain", {13});
    return std::make_tuple(vm.stats().instructions, vm.stats().steals_served,
                           vm.stats().suspends);
  };
  // Identical configuration -> bit-identical execution (the property the
  // STVM exists for: schedules are replayable).
  EXPECT_EQ(run_once(11), run_once(11));
}

TEST(Migration, SingleWorkerNeverSteals) {
  VmConfig cfg;
  cfg.workers = 1;
  cfg.validate = true;
  Vm vm(programs::compile(programs::pfib()), cfg);
  vm.run("pmain", {12});
  EXPECT_EQ(vm.stats().steals_served, 0u);
  EXPECT_EQ(vm.stats().steals_rejected, 0u);
}

// Exhaustive small sweep: every (n, workers, quantum) cell must agree
// with the sequential value.
class SweepTest : public ::testing::TestWithParam<int> {};

Word ref_fib(Word k) { return k < 2 ? k : ref_fib(k - 1) + ref_fib(k - 2); }

TEST_P(SweepTest, AllSchedulesAgree) {
  const int n = GetParam();
  const Word expect = ref_fib(n);
  for (unsigned workers : {1u, 2u, 3u}) {
    for (int quantum : {1, 7, 33}) {
      VmConfig cfg;
      cfg.workers = workers;
      cfg.quantum = quantum;
      cfg.steal_seed = static_cast<std::uint64_t>(n * 100 + quantum);
      cfg.validate = true;
      Vm vm(programs::compile(programs::pfib()), cfg);
      EXPECT_EQ(vm.run("pmain", {n}), expect)
          << "n=" << n << " workers=" << workers << " quantum=" << quantum;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SweepTest, ::testing::Values(3, 6, 9, 12));

}  // namespace

// Parallel array sum on the STVM: a second fork-join program shape
// (range splitting with data in the shared heap) across schedules.
namespace {
class PsumTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(PsumTest, CorrectAcrossSchedules) {
  const auto& s = GetParam();
  VmConfig cfg;
  cfg.workers = s.workers;
  cfg.quantum = s.quantum;
  cfg.steal_seed = s.seed;
  cfg.validate = true;
  Vm vm(stvm::programs::compile(stvm::programs::psum()), cfg);
  constexpr Word kN = 200;
  EXPECT_EQ(vm.run("psum_main", {kN}), kN * (kN + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Schedules, PsumTest,
                         ::testing::Values(Schedule{1, 64, 1}, Schedule{2, 16, 2},
                                           Schedule{2, 1, 3}, Schedule{3, 8, 4},
                                           Schedule{4, 32, 5}));

TEST(PsumTest2, PostprocessedTextReassembles) {
  // The postprocessor's output is valid assembly: disassemble and
  // re-assemble it (the augmented epilogues, replicas and relocated
  // labels all survive the text round trip).
  const auto prog = stvm::programs::compile(stvm::programs::psum());
  const std::string text = stvm::disassemble(prog.module);
  const stvm::Module again = stvm::assemble(text);
  EXPECT_EQ(again.code.size(), prog.module.code.size());
  for (const auto& [name, idx] : prog.module.labels) {
    ASSERT_TRUE(again.labels.count(name)) << name;
    EXPECT_EQ(again.labels.at(name), idx) << name;
  }
}
}  // namespace
