// stvm_pfib: STVM pfib(kPfibN) on kStvmWorkers virtual workers, under the
// threaded engine and then the JIT.  Dispatch and frame surgery (suspend,
// restart, migrate) do all the work, on one OS thread.
#include <cstdio>
#include <exception>
#include <optional>

#include "checks.hpp"
#include "stvm/asm.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

class StvmPfib final : public Workload {
 public:
  void setup(std::uint64_t) override {
    stvm::Module module;
    {
      Span s(tracer, "stvm.assemble", rep_span);
      module = stvm::assemble(stvm::programs::pfib() + "\n" + stvm::programs::stdlib());
    }
    {
      Span s(tracer, "stvm.postprocess", rep_span);
      prog_ = stvm::postprocess(module);
    }
    build_vms(rep_span);
  }

  void rep(Outcome& out) override {
    if (!threaded_) build_vms(rep_span);
    const std::optional<long> thr = run(*threaded_, "stvm.run.threaded", threaded_stats_);
    const std::optional<long> jit = run(*jit_, "stvm.run.jit", jit_stats_);
    out.attempted += 2;
    out.failed += (thr ? 0 : 1) + (jit ? 0 : 1);
    if (thr && jit) {
      out.check(check_stvm(kPfibN, *thr, *jit, threaded_stats_.instructions,
                           jit_stats_.instructions));
    }
    if (stvm::Vm::jit_supported() && !jit_->dispatch_jit()) {
      out.check("stvm: the JIT engine fell back to threaded dispatch");
    }
    threaded_.reset();
    jit_.reset();
  }

  void layer_metrics(const Tracer& tr, Metrics& m) const override {
    const double thr_s = tr.median_ns("stvm.run.threaded") / 1e9;
    const double jit_s = tr.median_ns("stvm.run.jit") / 1e9;
    const auto instr = static_cast<double>(jit_stats_.instructions);
    m.push_back({"stvm.assemble_ms", tr.median_ns("stvm.assemble") / 1e6, "ms"});
    m.push_back({"stvm.postprocess_ms", tr.median_ns("stvm.postprocess") / 1e6, "ms"});
    m.push_back({"stvm.vm_build_ms", tr.median_ns("stvm.vm_build") / 1e6, "ms"});
    m.push_back({"stvm.threaded_s", thr_s, "s"});
    m.push_back({"stvm.jit_s", jit_s, "s"});
    m.push_back({"stvm.instructions", instr, "count"});
    m.push_back({"stvm.minstr_per_s_threaded", instr / thr_s / 1e6, "Minstr/s"});
    m.push_back({"stvm.minstr_per_s_jit", instr / jit_s / 1e6, "Minstr/s"});
    m.push_back({"stvm.suspends", static_cast<double>(jit_stats_.suspends), "count"});
    m.push_back({"stvm.restarts", static_cast<double>(jit_stats_.restarts), "count"});
    m.push_back({"stvm.steals_served", static_cast<double>(jit_stats_.steals_served), "count"});
    m.push_back({"stvm.frames_unwound", static_cast<double>(jit_stats_.frames_unwound), "count"});
  }

 private:
  /// Links one Vm per engine: predecode for both, native code for the JIT.
  void build_vms(std::uint64_t parent) {
    Span s(tracer, "stvm.vm_build", parent);
    stvm::VmConfig cfg;
    cfg.workers = kStvmWorkers;
    cfg.dispatch = stvm::VmConfig::Dispatch::kThreaded;
    threaded_ = std::make_unique<stvm::Vm>(prog_, cfg);
    cfg.dispatch = stvm::VmConfig::Dispatch::kJit;
    jit_ = std::make_unique<stvm::Vm>(prog_, cfg);
  }

  /// pmain(kPfibN) on `vm`; nullopt when the Vm reports an error.
  std::optional<long> run(stvm::Vm& vm, const char* span, stvm::VmStats& stats) {
    Span s(tracer, span, rep_span);
    try {
      const long r = static_cast<long>(vm.run("pmain", {kPfibN}));
      stats = vm.stats();
      return r;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: stvm_pfib: %s\n", e.what());
      return std::nullopt;
    }
  }

  stvm::PostprocResult prog_;
  std::unique_ptr<stvm::Vm> threaded_;
  std::unique_ptr<stvm::Vm> jit_;
  stvm::VmStats threaded_stats_{};
  stvm::VmStats jit_stats_{};
};

}  // namespace

std::unique_ptr<Workload> make_stvm_pfib() { return std::make_unique<StvmPfib>(); }

}  // namespace perfbench
