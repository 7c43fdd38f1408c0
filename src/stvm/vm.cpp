#include "stvm/vm.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "stvm/verify.hpp"
#include "util/domain_spec.hpp"
#include "util/env.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace stvm {

namespace {

constexpr Addr kAddrMax = std::numeric_limits<Addr>::max();

bool is_fork_point(const ProcDescriptor* d, Addr call_addr) {
  return d != nullptr &&
         std::find(d->fork_points.begin(), d->fork_points.end(), call_addr) !=
             d->fork_points.end();
}

/// VmStats as (key, value) rows in table order: the ST_METRICS
/// "counters" object and the ST_STATS stvm row.
std::vector<stu::CounterRow> counter_rows(const VmStats& s) {
#define ST_ROW(field) {#field, s.field},
  return {ST_VM_COUNTERS(ST_ROW)};
#undef ST_ROW
}

}  // namespace

// ---------------------------------------------------------------------
// Construction / linking
// ---------------------------------------------------------------------

Vm::Vm(const PostprocResult& program, VmConfig cfg)
    : code_(program.module.code), cfg_(cfg), rng_(cfg.steal_seed) {
  stu::trace_configure_from_env();
  stu::metrics_configure_from_env();
  stu::sched_configure_from_env();
  stu::trace_ring_register(&trace_);
  metrics_provider_ =
      stu::MetricsRegistry::instance().add_provider([this] { return metrics_json(); });
  if (cfg_.workers == 0) cfg_.workers = 1;
  // Steal domains (model twin of runtime/topology.hpp).  Only explicit
  // ST_TOPOLOGY specs take effect -- `auto`/flat leave one domain and
  // victim selection bit-identical to the pre-hierarchy VM.
  domain_of_.assign(cfg_.workers, 0);
  {
    const stu::DomainSpec spec = stu::domain_spec_from_env();
    if (spec.explicit_domains()) {
      for (unsigned v = 0; v < cfg_.workers; ++v) {
        domain_of_[v] = static_cast<std::uint16_t>(spec.domain_of(v));
      }
      num_domains_ = spec.domains(cfg_.workers);
    }
  }
  steal_local_retries_ = static_cast<unsigned>(
      std::max(0L, stu::env_long("ST_STEAL_LOCAL_RETRIES", 4)));
  // Opt-in load-time gate: with ST_VERIFY=1 every module is statically
  // verified before it can run (see stvm/verify.hpp; docs/VERIFIER.md).
  if (verify_enabled()) verify_or_throw(program);
  for (const auto& d : program.descriptors) table_.add(d);
  max_args_ = table_.max_args_region();

  // Resolve label operands: module labels first, then runtime entries.
  const std::map<std::string, int> builtins = {
      {"__st_alloc", kBAlloc},
      {"__st_print", kBPrint},
      {"__st_suspend", kBSuspend},
      {"__st_suspend_publish", kBSuspendPublish},
      {"__st_restart", kBRestart},
      {"__st_resume", kBResume},
      {"__st_poll", kBPoll},
      {"__st_worker_id", kBWorkerId},
      {"__st_num_workers", kBNumWorkers},
      {"__st_exit", kBExit},
      {kForkBegin, kBForkBegin},
      {kForkEnd, kBForkEnd},
  };
  for (auto& ins : code_) {
    if (ins.label.empty()) continue;
    auto lit = program.module.labels.find(ins.label);
    if (lit != program.module.labels.end()) {
      ins.target = static_cast<Addr>(lit->second);
      continue;
    }
    auto bit = builtins.find(ins.label);
    if (bit != builtins.end()) {
      ins.target = kBuiltinBase + bit->second;
      continue;
    }
    throw VmError("unresolved symbol: " + ins.label);
  }

  // Memory layout: [0,16) guard, heap, then one stack segment per worker.
  heap_end_ = 16 + static_cast<Addr>(cfg_.heap_words);
  const Addr total =
      heap_end_ + static_cast<Addr>(cfg_.workers) * static_cast<Addr>(cfg_.stack_words);
  memory_.assign(static_cast<std::size_t>(total), 0);

  workers_.resize(cfg_.workers);
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    auto& W = workers_[w];
    W.stack_lo = heap_end_ + static_cast<Addr>(w) * static_cast<Addr>(cfg_.stack_words);
    W.stack_hi = W.stack_lo + static_cast<Addr>(cfg_.stack_words);
    W.regs[kSp] = W.stack_hi;
  }

  // Engine selection and predecode.  The run-form stream is built once,
  // after label resolution, so module/verify semantics are untouched;
  // validate mode predecodes unfused so its per-instruction validation
  // points line up with the switch engine.
  enum class Engine { kSwitch, kThreaded, kJit };
  Engine engine = Engine::kThreaded;
  switch (cfg_.dispatch) {
    case VmConfig::Dispatch::kSwitch: engine = Engine::kSwitch; break;
    case VmConfig::Dispatch::kThreaded: engine = Engine::kThreaded; break;
    case VmConfig::Dispatch::kJit: engine = Engine::kJit; break;
    case VmConfig::Dispatch::kEnv: {
      const std::string d = stu::env_string("ST_STVM_DISPATCH", "threaded");
      if (d == "switch") {
        engine = Engine::kSwitch;
      } else if (d == "threaded") {
        engine = Engine::kThreaded;
      } else if (d == "jit") {
        engine = Engine::kJit;
      } else {
        throw VmError("ST_STVM_DISPATCH must be 'switch', 'threaded' or 'jit', got: " +
                      d);
      }
      break;
    }
  }
  // Access annotation (util/sched_log.hpp kSchedAccess) needs the
  // per-instruction seam only the switch engine has, so an annotating
  // run forces it.  Schedules are engine-agnostic (every engine charges
  // budget per architectural instruction), so an analysis or explored
  // interleaving from a switch-engine run transfers to the others.
  annotate_ = stu::sched_annotating();
  if (annotate_) engine = Engine::kSwitch;
  // JIT fallback ladder (docs/OBSERVABILITY.md): native emission
  // unavailable on this build/host, validate mode (needs the
  // per-instruction hook), or a module below ST_JIT_THRESHOLD
  // instructions degrades cleanly to the threaded engine.
  if (engine == Engine::kJit &&
      (!jit_supported() || cfg_.validate ||
       static_cast<long long>(code_.size()) < stu::env_long("ST_JIT_THRESHOLD", 0))) {
    engine = Engine::kThreaded;
  }
#if !defined(__GNUC__)
  // The computed-goto engine needs labels-as-values.
  if (engine == Engine::kThreaded) engine = Engine::kSwitch;
#endif
  threaded_ = engine == Engine::kThreaded;
  fuse_ = stu::env_long("ST_STVM_FUSE", 1) != 0 && !cfg_.validate;
  if (threaded_) pre_ = predecode(code_, fuse_);
  engine_flags_ = (cfg_.validate ? kEngineValidate : 0) |
                  ((cfg_.count_opcodes || stu::metrics_enabled() ||
                    stu::trace_stats_enabled())
                       ? kEngineCount
                       : 0);
  if (engine == Engine::kJit) {
    // The JIT translates the *unfused* stream: blocks are 1:1 with
    // architectural instructions, so quantum boundaries and cold exits
    // never land inside a group and no degrade path exists at all.
    pre_ = predecode(code_, /*enable_fusion=*/false);
    jit_ = std::make_unique<JitProgram>();
    const bool counting = (engine_flags_ & kEngineCount) != 0;
    if (jit_->compile(pre_, static_cast<std::int64_t>(code_.size()), memory_.size(),
                      memory_.data(), &jit_state_,
                      counting ? op_retired_.data() : nullptr)) {
      jit_active_ = true;
    } else {
      // Compile refused (e.g. a memory span beyond the emitted 32-bit
      // bounds immediates): fall back like an unsupported host.
      jit_.reset();
      threaded_ = true;
#if !defined(__GNUC__)
      threaded_ = false;
#endif
      pre_ = threaded_ ? predecode(code_, fuse_) : Predecoded{};
    }
  }
}

Vm::~Vm() {
  if (!trace_.empty()) stu::trace_flush(trace_);
  stu::trace_ring_unregister(&trace_);
  if (metrics_provider_ >= 0) {
    stu::MetricsRegistry::instance().remove_provider(metrics_provider_);
  }
  if (stu::trace_stats_enabled()) {
    std::fprintf(stderr, "[st-stats stvm workers=%u]%s\n", cfg_.workers,
                 stu::counters_flat(counter_rows(stats_)).c_str());
    std::fprintf(stderr, "[st-stats stvm opcodes dispatch=%s fuse=%d]",
                 jit_active_ ? "jit" : threaded_ ? "threaded" : "switch",
                 threaded_ && fuse_ ? 1 : 0);
    for (int i = 0; i < kNumRunOps; ++i) {
      if (op_retired_[static_cast<std::size_t>(i)] == 0) continue;
      std::fprintf(stderr, " %s=%llu", run_op_name(static_cast<RunOp>(i)),
                   static_cast<unsigned long long>(op_retired_[static_cast<std::size_t>(i)]));
    }
    std::fprintf(stderr, "\n");
  }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

Word& Vm::mem(Addr a) {
  if (!addr_ok(a)) {
    throw VmError("memory access out of range: " + std::to_string(a));
  }
  return memory_[static_cast<std::size_t>(a)];
}

Word Vm::read_mem(Addr a) const {
  if (!addr_ok(a)) {
    throw VmError("memory access out of range: " + std::to_string(a));
  }
  return memory_[static_cast<std::size_t>(a)];
}

void Vm::mem_oob(unsigned w, Addr a, Addr at) {
  workers_[w].pc = at;
  throw VmError("memory access out of range: " + std::to_string(a));
}

bool Vm::is_local(unsigned w, Addr addr) const {
  return addr >= workers_[w].stack_lo && addr < workers_[w].stack_hi;
}

const ProcDescriptor* Vm::proc_of(Addr pc, const char* why) const {
  const ProcDescriptor* d = table_.find(pc);
  if (d == nullptr) {
    throw VmError(std::string("no procedure descriptor covering address ") +
                  std::to_string(pc) + " (" + why + ")");
  }
  return d;
}

Addr Vm::make_trampoline(Trampoline t) {
  const Addr token = next_tramp_++;
  trampolines_[token] = t;
  return token;
}

Addr Vm::alloc_heap(Word n) {
  if (n < 0 || heap_next_ + n > heap_end_) throw VmError("heap exhausted");
  const Addr p = heap_next_;
  heap_next_ += n;
  return p;
}

void Vm::fail(unsigned w, const std::string& msg) const {
  std::ostringstream out;
  out << "worker " << w << " @ pc=" << workers_[w].pc << ": " << msg;
  throw VmError(out.str());
}

// ---------------------------------------------------------------------
// Top-level run loop
// ---------------------------------------------------------------------

Word Vm::run(const std::string& entry, const std::vector<Word>& args) {
  if (result_.has_value()) throw VmError("Vm::run may only be called once");
  const ProcDescriptor* d = table_.by_name(entry);
  if (d == nullptr) throw VmError("unknown entry procedure: " + entry);

  auto& W0 = workers_[0];
  W0.regs[kSp] = W0.stack_hi - 16;  // pseudo caller frame holding the args
  for (std::size_t i = 0; i < args.size(); ++i) mem(W0.regs[kSp] + static_cast<Addr>(i)) = args[i];
  // The entry runs as a fine-grain thread above a scheduler fork boundary
  // (so its joins may suspend); programs terminate via __st_exit.
  Trampoline sched;
  sched.kind = Trampoline::Kind::kScheduler;
  sched.is_fork = true;
  sched.owner = 0;
  W0.regs[kLr] = make_trampoline(sched);
  W0.regs[kFp] = 0;
  W0.pc = d->entry;
  W0.idle = false;

  // Deadlock detection, incrementally: the full all-worker sweep is the
  // authority (so there are no false positives), but it only runs every
  // 4th round and only when no step has flagged new work since the last
  // sweep (work_dirty_ is set by restart, resume, and steal traffic).
  // Two consecutive quiet sweeps -- everything idle, nothing queued,
  // nothing in flight, no __st_exit -- are conclusive: an all-quiet
  // state with no pending transitions cannot become runnable again.
  int quiet_sweeps = 0;
  std::uint64_t round = 0;
  work_dirty_ = true;
  while (!result_.has_value()) {
    for (unsigned w = 0; w < cfg_.workers && !result_.has_value(); ++w) {
      step_worker(w);
    }
    if (stats_.instructions > cfg_.max_steps) {
      throw VmError("instruction budget exhausted (livelock or runaway program)");
    }
    ++round;
    if (work_dirty_) {
      work_dirty_ = false;
      quiet_sweeps = 0;
      continue;
    }
    if ((round & 3) != 0) continue;
    bool quiet = !result_.has_value();
    for (const auto& W : workers_) {
      if (!W.idle || W.halted || !W.readyq.empty() || W.steal_request_from >= 0 ||
          W.steal_reply != kNoReply) {
        quiet = false;
        break;
      }
    }
    quiet_sweeps = quiet ? quiet_sweeps + 1 : 0;
    if (quiet_sweeps >= 2) {
      throw VmError(
          "deadlock: all workers idle with no runnable work and no __st_exit\n" +
          dump_logical_stacks());
    }
  }
  return *result_;
}

void Vm::step_worker(unsigned w) {
  auto& W = workers_[w];
  if (W.halted) return;
  if (W.idle) {
    idle_step(w);
    return;
  }
  // Schedule record/replay seam (util/sched_log.hpp).  The quantum
  // length is the VM's one timing-like degree of freedom: replay forces
  // the budget to the instruction count the recorded quantum actually
  // retired, making preemption points land on the same architectural
  // instruction regardless of engine (both engines charge the budget
  // once per architectural instruction).
  int budget = cfg_.quantum;
  const bool recording = stu::sched_recording();
  stu::SchedDecision forced{};
  bool have_forced = false;
  if (stu::sched_replaying()) [[unlikely]] {
    // Consume without the trace ride-along: recording emits its
    // kTraceSched *after* the quantum runs (the instruction count is
    // only known then), so replay defers its re-emission to the same
    // point to keep the two trace streams bit-identical.
    if (stu::sched_replay_next(stu::kSchedQuantum, static_cast<std::uint16_t>(w),
                               stu::kTraceSrcStvm, &forced)) {
      have_forced = true;
      // A mutated log can carry any value; clamp so progress is
      // guaranteed and the budget fits the engines' int arithmetic.
      budget = forced.a < 1 ? 1
               : forced.a > 0x40000000ull ? 0x40000000
                                          : static_cast<int>(forced.a);
    }
  }
  const std::uint64_t before = stats_.instructions;
  if (jit_active_) {
    int b = budget;
    if (cfg_.workers == 1 && !recording && !stu::sched_replaying() &&
        stu::trace_mask() == 0) {
      // Quantum coalescing: with one worker and no recorder/replayer/
      // tracer attached, quantum boundaries have no observer -- no
      // interleaving, no kSchedQuantum events, no per-quantum stats --
      // so several quanta run as one native stretch.  The batch stops at
      // a multiple of the quantum that stays at-or-below max_steps, so a
      // runaway program still errors on exactly the boundary where the
      // interpreters' per-sweep check fires (floor(room/quantum) is 0
      // there, degrading to single quanta).  Everything else that ends a
      // quantum early (halt, idle, faults) ends the batch the same way.
      const std::uint64_t q = static_cast<std::uint64_t>(budget);
      const std::uint64_t room = cfg_.max_steps > stats_.instructions
                                     ? cfg_.max_steps - stats_.instructions
                                     : 0;
      std::uint64_t quanta = q > 0 ? room / q : 0;
      if (quanta > 4096) quanta = 4096;
      if (quanta > 1) b = static_cast<int>(quanta * q);
    }
    exec_quantum_jit(w, b);
  } else if (threaded_) {
    exec_quantum_threaded(w, budget);
  } else {
    for (int i = 0; i < budget; ++i) {
      exec_instr(w);
      if (cfg_.validate) validate_worker(w);
      if (W.idle || W.halted || result_.has_value()) break;
    }
  }
  if (recording) [[unlikely]] {
    stu::sched_record(stu::kSchedQuantum, static_cast<std::uint16_t>(w),
                      stu::kTraceSrcStvm, stats_.instructions - before,
                      static_cast<std::uint64_t>(W.pc), &trace_);
  }
  if (have_forced && stu::trace_enabled(stu::kTraceSched)) [[unlikely]] {
    trace_.emit(stu::kTraceSched, static_cast<std::uint16_t>(w),
                stu::kTraceSrcStvm, forced.seq, forced.kind);
  }
}

void Vm::validate_worker(unsigned w) const {
  const auto& W = workers_[w];
  if (W.idle || W.halted) return;
  const Addr sp = W.regs[kSp];
  if (sp < W.stack_lo || sp > W.stack_hi) {
    fail(w, "SP escaped the physical stack segment: " + std::to_string(sp));
  }
  // Theorem 4(1), dynamically: SP at or above the top of every live
  // (non-retired) exported frame of this worker.
  for (const auto& e : W.exported.raw()) {
    if (read_mem(e.ra_slot) != 0 && sp > e.top) {
      fail(w, "SP moved below a live exported frame (fp=" + std::to_string(e.fp) + ")");
    }
  }
}

void Vm::idle_step(unsigned w) {
  auto& W = workers_[w];
  // Serve thieves even while idle (reject or hand out the readyq tail).
  if (W.steal_request_from >= 0) serve_steal(w, 0, 0, /*running=*/false);
  shrink(w, /*cur_pc=*/-1);
  if (!W.readyq.empty()) {
    const Addr ctx = W.readyq.pop_head();  // Figure 12: schedule readyq head
    do_restart(w, ctx, 0, 0, /*from_scheduler=*/true);
    return;
  }
  if (cfg_.workers <= 1) return;
  if (W.awaiting_victim < 0) {
    // Load-aware victim selection (the model twin of the native
    // runtime's ST_VICTIM=load): probe the worker advertising the
    // deepest readyq.  When every queue is empty, fall back to the
    // blind random probe -- a running victim with an empty readyq can
    // still hand over work via the Figure 9 logical-stack migration.
    //
    // Schedule record/replay: every probe outcome is logged 1:1
    // (including "found nobody", kSchedNoVictim) so replay can force the
    // exact probe sequence.  `b` marks whether the rng fallback drew a
    // number; replay re-draws in that case so the rng stream stays
    // aligned with the recorded run even past the end of the log.
    int victim = -1;
    bool used_rng = false;
    bool forced = false;
    if (stu::sched_replaying()) [[unlikely]] {
      stu::SchedDecision d;
      if (stu::sched_replay_next(stu::kSchedVictim, static_cast<std::uint16_t>(w),
                                 stu::kTraceSrcStvm, &d, &trace_)) {
        forced = true;
        if (d.b != 0) {
          (void)rng_.below(cfg_.workers - 1);
          used_rng = true;
        }
        if (d.a == stu::kSchedNoVictim) {
          victim = -1;
        } else if (d.a < cfg_.workers && d.a != w && !workers_[d.a].halted &&
                   workers_[d.a].steal_request_from < 0) {
          victim = static_cast<int>(d.a);
        } else {
          // Mutated/foreign log: the forced victim is not probeable in
          // this state.  Skip the probe deterministically.
          stu::sched_note_divergence(stu::kSchedVictim,
                                     static_cast<std::uint16_t>(w),
                                     stu::kTraceSrcStvm, d.seq, d.a,
                                     stu::kSchedNoVictim,
                                     "forced victim not probeable");
          victim = -1;
        }
        // The recording side logs a kSchedDomain right after every
        // successful victim decision when the topology is hierarchical:
        // consume it symmetrically (ST_TOPOLOGY identical between record
        // and replay keeps the FIFOs and the ride-along stream aligned).
        if (d.a != stu::kSchedNoVictim && num_domains_ > 1) {
          stu::SchedDecision dd;
          if (stu::sched_replay_next(stu::kSchedDomain,
                                     static_cast<std::uint16_t>(w),
                                     stu::kTraceSrcStvm, &dd, &trace_) &&
              victim >= 0 &&
              dd.a != domain_of_[static_cast<unsigned>(victim)]) {
            stu::sched_note_divergence(
                stu::kSchedDomain, static_cast<std::uint16_t>(w),
                stu::kTraceSrcStvm, dd.seq, dd.a,
                domain_of_[static_cast<unsigned>(victim)],
                "forced victim in a different domain");
          }
        }
      }
    }
    if (!forced) {
      // Hierarchical pass (model twin of choose_victim_hier): deepest
      // readyq within this worker's domain first; other domains open up
      // only once the consecutive local-failure streak crosses
      // ST_STEAL_LOCAL_RETRIES.  Flat topology degenerates to the single
      // global scan, bit-identical to the pre-hierarchy VM.
      const bool remote_ok =
          num_domains_ <= 1 || W.local_fails >= steal_local_retries_;
      std::size_t best_depth = 0;
      for (unsigned v = 0; v < cfg_.workers; ++v) {
        if (v == w || workers_[v].halted || workers_[v].steal_request_from >= 0) continue;
        if (num_domains_ > 1 && domain_of_[v] != domain_of_[w]) continue;
        const std::size_t depth = workers_[v].readyq.size();
        if (depth > best_depth) {
          best_depth = depth;
          victim = static_cast<int>(v);
        }
      }
      if (victim < 0 && remote_ok && num_domains_ > 1) {
        for (unsigned v = 0; v < cfg_.workers; ++v) {
          if (v == w || workers_[v].halted || workers_[v].steal_request_from >= 0) continue;
          if (domain_of_[v] == domain_of_[w]) continue;
          const std::size_t depth = workers_[v].readyq.size();
          if (depth > best_depth) {
            best_depth = depth;
            victim = static_cast<int>(v);
          }
        }
      }
      if (victim < 0) {
        // Blind migration probe.  The draw always happens so the rng
        // stream stays aligned with flat runs; under a locked hierarchy
        // a cross-domain draw is discarded (probe skipped this round).
        unsigned r = static_cast<unsigned>(rng_.below(cfg_.workers - 1));
        used_rng = true;
        if (r >= w) ++r;
        if (workers_[r].steal_request_from < 0 && !workers_[r].halted &&
            (remote_ok || domain_of_[r] == domain_of_[w])) {
          victim = static_cast<int>(r);
        }
      }
    }
    // Recorded whether the probe was free or forced: in replay+record
    // mode (the explorer) the output log must be complete -- the probe
    // as *applied*, so the re-recorded schedule replays standalone.
    if (stu::sched_recording()) [[unlikely]] {
      stu::sched_record(stu::kSchedVictim, static_cast<std::uint16_t>(w),
                        stu::kTraceSrcStvm,
                        victim >= 0 ? static_cast<std::uint64_t>(victim)
                                    : stu::kSchedNoVictim,
                        used_rng ? 1 : 0, &trace_);
      if (victim >= 0 && num_domains_ > 1) {
        const std::uint16_t vd = domain_of_[static_cast<unsigned>(victim)];
        stu::sched_record(stu::kSchedDomain, static_cast<std::uint16_t>(w),
                          stu::kTraceSrcStvm, vd,
                          vd == domain_of_[w] ? 1 : 0, &trace_);
      }
    }
    if (victim < 0) {
      // Count the empty scan toward the streak so a starved domain
      // eventually unlocks cross-domain probing (mirrors the runtime).
      if (W.local_fails < std::numeric_limits<unsigned>::max()) ++W.local_fails;
    }
    if (victim >= 0) {
      workers_[static_cast<std::size_t>(victim)].steal_request_from = static_cast<int>(w);
      W.awaiting_victim = victim;
      work_dirty_ = true;
    }
  } else if (W.steal_reply != kNoReply) {
    const Addr reply = W.steal_reply;
    const int from = W.awaiting_victim;
    W.steal_reply = kNoReply;
    W.awaiting_victim = -1;
    if (reply != kRejected) {
      W.local_fails = 0;  // fed: next idle episode starts local again
      do_restart(w, reply, 0, 0, /*from_scheduler=*/true);
    } else if (num_domains_ > 1 && from >= 0) {
      // A rejected local probe advances the streak; a rejected remote one
      // spends it (cross-domain probes are rate-limited, as in the
      // native runtime's thief).
      if (domain_of_[static_cast<unsigned>(from)] == domain_of_[w]) {
        ++W.local_fails;
      } else {
        W.local_fails = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------

void Vm::exec_instr(unsigned w) {
  auto& W = workers_[w];
  if (W.pc < 0 || W.pc >= static_cast<Addr>(code_.size())) fail(w, "pc out of code range");
  const Instr& ins = code_[static_cast<std::size_t>(W.pc)];
  ++stats_.instructions;
  if (engine_flags_ & kEngineCount) [[unlikely]] {
    // Op mirrors the head of RunOp, so the plain opcode IS its histogram
    // index (the switch engine never retires supers or split forms).
    ++op_retired_[static_cast<std::size_t>(ins.op)];
  }
  auto& R = W.regs;
  switch (ins.op) {
    case Op::kLi: R[ins.rd] = ins.imm; ++W.pc; break;
    case Op::kMov: R[ins.rd] = R[ins.ra]; ++W.pc; break;
    case Op::kAdd: R[ins.rd] = R[ins.ra] + R[ins.rb]; ++W.pc; break;
    case Op::kSub: R[ins.rd] = R[ins.ra] - R[ins.rb]; ++W.pc; break;
    case Op::kMul: R[ins.rd] = R[ins.ra] * R[ins.rb]; ++W.pc; break;
    case Op::kDiv:
      if (R[ins.rb] == 0) fail(w, "division by zero");
      R[ins.rd] = R[ins.ra] / R[ins.rb];
      ++W.pc;
      break;
    case Op::kAddi: R[ins.rd] = R[ins.ra] + ins.imm; ++W.pc; break;
    case Op::kSubi: R[ins.rd] = R[ins.ra] - ins.imm; ++W.pc; break;
    case Op::kLd: {
      const Addr a = R[ins.ra] + ins.imm;  // before rd clobbers ra (rd == ra)
      R[ins.rd] = mem(a);
      note_access(w, a, stu::kSchedAccessRead);
      ++W.pc;
      break;
    }
    case Op::kSt:
      mem(R[ins.ra] + ins.imm) = R[ins.rd];
      note_access(w, R[ins.ra] + ins.imm, stu::kSchedAccessWrite);
      ++W.pc;
      break;
    case Op::kFetchAdd: {
      const Addr a = R[ins.ra] + ins.imm;
      Word& slot = mem(a);
      R[ins.rd] = slot;
      slot += R[ins.rb];
      note_access(w, a, stu::kSchedAccessAtomic);
      ++W.pc;
      break;
    }
    case Op::kCall:
      R[kLr] = W.pc + 1;
      if (ins.target >= kBuiltinBase) {
        W.pc = R[kLr];  // builtins "return" unless they redirect control
        do_builtin(w, static_cast<int>(ins.target - kBuiltinBase));
      } else {
        W.pc = ins.target;
      }
      break;
    case Op::kCallr: {
      const Addr target = R[ins.ra];
      R[kLr] = W.pc + 1;
      if (target >= kBuiltinBase && target < kTrampBase) {
        W.pc = R[kLr];
        do_builtin(w, static_cast<int>(target - kBuiltinBase));
      } else if (target >= kTrampBase) {
        fail(w, "callr into a trampoline token");
      } else {
        W.pc = target;
      }
      break;
    }
    case Op::kJmp: W.pc = ins.target; break;
    case Op::kJr: {
      const Addr target = R[ins.ra];
      if (target >= kTrampBase) {
        take_trampoline(w, target);
      } else if (target >= kBuiltinBase) {
        fail(w, "jr into a builtin");
      } else {
        W.pc = target;
      }
      break;
    }
    case Op::kBeq: W.pc = (R[ins.ra] == R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBne: W.pc = (R[ins.ra] != R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBlt: W.pc = (R[ins.ra] < R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBge: W.pc = (R[ins.ra] >= R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBltu:
      W.pc = (static_cast<std::uint64_t>(R[ins.ra]) < static_cast<std::uint64_t>(R[ins.rb]))
                 ? ins.target
                 : W.pc + 1;
      break;
    case Op::kBgeu:
      W.pc = (static_cast<std::uint64_t>(R[ins.ra]) >= static_cast<std::uint64_t>(R[ins.rb]))
                 ? ins.target
                 : W.pc + 1;
      break;
    case Op::kGetMaxE: {
      // The epilogue check's "1 load": the topmost exported frame's FP, or
      // the above-stack sentinel when the exported set is empty.
      R[ins.rd] = W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
      ++W.pc;
      break;
    }
    case Op::kHalt:
      result_ = R[0];
      W.halted = true;
      break;
  }
}

// ---------------------------------------------------------------------
// The predecoded direct-threaded engine (DESIGN.md "Run-form stream").
//
// One quantum per call, architecturally bit-identical to the switch
// engine above: same fail messages and W.pc values, same per-quantum
// instruction counts, same interleaving (fused groups degrade to their
// plain first component when fewer instructions remain in the quantum
// than the group is wide).  Invariants the handlers rely on:
//  - rpc is the architectural pc; W.pc is synced on every path that
//    leaves the engine or can observe it (builtins, trampolines, fail).
//  - budget is decremented once per architectural instruction, always
//    *before* that instruction's first fault point (the switch engine
//    counts an instruction before executing it); the Flush guard folds
//    the retired count into stats_.instructions on every exit path.
//  - memory_ never reallocates after construction (alloc_heap only bumps
//    heap_next_), so m0/mspan hoisted here stay valid across builtins.
// ---------------------------------------------------------------------

#if defined(__GNUC__)

void Vm::exec_quantum_threaded(unsigned w, int budget) {
  if (engine_flags_ == 0) {
    exec_quantum_threaded_impl<false>(w, budget);
  } else {
    exec_quantum_threaded_impl<true>(w, budget);
  }
}

template <bool kSlow>
void Vm::exec_quantum_threaded_impl(unsigned w, int budget) {
  static const void* const kL[] = {
      &&L_li, &&L_mov, &&L_add, &&L_sub, &&L_mul, &&L_div, &&L_addi, &&L_subi,
      &&L_ld, &&L_st, &&L_call, &&L_callr, &&L_jmp, &&L_jr, &&L_beq, &&L_bne,
      &&L_blt, &&L_bge, &&L_bltu, &&L_bgeu, &&L_fetchadd, &&L_getmaxe,
      &&L_halt, &&L_callb, &&L_badpc,
      &&L_s_addi_ld, &&L_s_addi_st, &&L_s_subi_st, &&L_s_st_addi, &&L_s_st_li,
      &&L_s_st_ld, &&L_s_st_st, &&L_s_ld_st, &&L_s_ld_ld, &&L_s_ld_mov,
      &&L_s_ld_add, &&L_s_ld_sub, &&L_s_ld_mul, &&L_s_ld_jr, &&L_s_mov_ld,
      &&L_s_li_st, &&L_s_li_call, &&L_s_li_beq, &&L_s_li_bne, &&L_s_li_blt,
      &&L_s_li_bge, &&L_s_li_bltu, &&L_s_li_bgeu, &&L_s_addi_beq,
      &&L_s_addi_bne, &&L_s_addi_blt, &&L_s_addi_bge, &&L_s_addi_bltu,
      &&L_s_addi_bgeu, &&L_s_add_jmp, &&L_s_addi_jmp, &&L_s_mov_jmp,
      &&L_s_mov_addi, &&L_s_st_call, &&L_s_subi_st_call, &&L_s_addi_st_call,
      &&L_s_ld_st_call, &&L_s_ld_add_jmp, &&L_s_ld_ld_mov, &&L_s_epilogue,
      &&L_s_ld_epilogue, &&L_s_sum_loop,
  };
  static_assert(sizeof(kL) / sizeof(kL[0]) == static_cast<std::size_t>(kNumRunOps),
                "handler table must cover RunOp exactly");

  auto& W = workers_[w];
  auto& R = W.regs;
  Word* const m0 = memory_.data();
  const std::uint64_t mspan = static_cast<std::uint64_t>(memory_.size()) - 1;
  const RInstr* const rc = pre_.rcode.data();
  const std::int64_t code_size = static_cast<std::int64_t>(code_.size());
  // kSlow == false folds every flag test below away at compile time.
  const std::uint32_t flags = kSlow ? engine_flags_ : 0;
  // Fold retired-instruction count into the global counter on every exit
  // path, including exceptions escaping builtins or fault handlers.
  struct Flush {
    VmStats* stats;
    const int* budget;
    int initial;
    ~Flush() { stats->instructions += static_cast<std::uint64_t>(initial - *budget); }
  } flush{&stats_, &budget, budget};
  std::int64_t rpc = W.pc;
  const RInstr* ip = rc;

// Fetch/dispatch: quantum check, architectural pc range check (the
// switch engine's bounds check, hoisted here so jr/callr targets need no
// checking at the jump site), degrade-on-quantum-boundary, histogram
// hook, dispatch.
#define ST_FETCH()                                                            \
  do {                                                                        \
    if (__builtin_expect(budget <= 0, 0)) goto quantum_done;                  \
    if (__builtin_expect(static_cast<std::uint64_t>(rpc) >=                   \
                             static_cast<std::uint64_t>(code_size),           \
                         0)) {                                                \
      W.pc = rpc;                                                             \
      fail(w, "pc out of code range");                                        \
    }                                                                         \
    ip = rc + rpc;                                                            \
    {                                                                         \
      std::uint8_t h = ip->h;                                                 \
      if (__builtin_expect(budget < ip->len, 0)) h = ip->alt;                 \
      if (__builtin_expect((flags & kEngineCount) != 0, 0))                   \
        ++op_retired_[h];                                                     \
      --budget;                                                               \
      goto* kL[h];                                                            \
    }                                                                         \
  } while (0)

// End of one architectural instruction (or fused group): run the
// validate hook exactly where the switch engine does, then fetch.
#define ST_NEXT()                                                             \
  do {                                                                        \
    if (__builtin_expect((flags & kEngineValidate) != 0, 0)) {                \
      W.pc = rpc;                                                             \
      validate_worker(w);                                                     \
    }                                                                         \
    ST_FETCH();                                                               \
  } while (0)

// Re-enter after a call that may have redirected control or changed the
// scheduling state (builtin, trampoline): W.pc is authoritative again.
#define ST_RESYNC()                                                           \
  do {                                                                        \
    if (__builtin_expect((flags & kEngineValidate) != 0, 0))                  \
      validate_worker(w);                                                     \
    if (W.idle || W.halted || result_.has_value()) goto engine_exit;          \
    rpc = W.pc;                                                               \
    ST_FETCH();                                                               \
  } while (0)

// Inlined fast-path bounds check; the cold path records the faulting
// architectural pc and throws the switch engine's exact message.
#define ST_CHK(addr, at)                                                      \
  do {                                                                        \
    if (__builtin_expect(                                                     \
            static_cast<std::uint64_t>(addr) - 1 >= mspan, 0))                \
      mem_oob(w, (addr), (at));                                               \
  } while (0)

  ST_FETCH();

  // ---- plain handlers (mirror exec_instr case for case) ---------------
L_li:
  R[ip->d] = ip->imm;
  ++rpc;
  ST_NEXT();
L_mov:
  R[ip->d] = R[ip->a];
  ++rpc;
  ST_NEXT();
L_add:
  R[ip->d] = R[ip->a] + R[ip->b];
  ++rpc;
  ST_NEXT();
L_sub:
  R[ip->d] = R[ip->a] - R[ip->b];
  ++rpc;
  ST_NEXT();
L_mul:
  R[ip->d] = R[ip->a] * R[ip->b];
  ++rpc;
  ST_NEXT();
L_div:
  if (__builtin_expect(R[ip->b] == 0, 0)) {
    W.pc = rpc;
    fail(w, "division by zero");
  }
  R[ip->d] = R[ip->a] / R[ip->b];
  ++rpc;
  ST_NEXT();
L_addi:
  R[ip->d] = R[ip->a] + ip->imm;
  ++rpc;
  ST_NEXT();
L_subi:
  R[ip->d] = R[ip->a] - ip->imm;
  ++rpc;
  ST_NEXT();
L_ld: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  ++rpc;
  ST_NEXT();
}
L_st: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  m0[a] = R[ip->d];
  ++rpc;
  ST_NEXT();
}
L_fetchadd: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  m0[a] += R[ip->b];
  ++rpc;
  ST_NEXT();
}
L_call:  // predecode split builtin targets into L_callb; this is code-to-code
  R[kLr] = rpc + 1;
  rpc = ip->t;
  ST_NEXT();
L_callb:
  R[kLr] = rpc + 1;
  W.pc = rpc + 1;  // builtins "return" unless they redirect control
  do_builtin(w, static_cast<int>(ip->imm));
  ST_RESYNC();
L_callr: {
  const Addr target = R[ip->a];
  R[kLr] = rpc + 1;
  if (__builtin_expect(target >= kBuiltinBase, 0)) {
    if (target >= kTrampBase) {
      W.pc = rpc;
      fail(w, "callr into a trampoline token");
    }
    W.pc = rpc + 1;
    do_builtin(w, static_cast<int>(target - kBuiltinBase));
    ST_RESYNC();
  }
  rpc = target;
  ST_NEXT();
}
L_jmp:
  rpc = ip->t;
  ST_NEXT();
L_jr: {
  const Addr target = R[ip->a];
  if (__builtin_expect(target >= kBuiltinBase, 0)) {
    W.pc = rpc;
    if (target < kTrampBase) fail(w, "jr into a builtin");
    take_trampoline(w, target);
    ST_RESYNC();
  }
  rpc = target;
  ST_NEXT();
}
L_beq:
  rpc = (R[ip->a] == R[ip->b]) ? ip->t : rpc + 1;
  ST_NEXT();
L_bne:
  rpc = (R[ip->a] != R[ip->b]) ? ip->t : rpc + 1;
  ST_NEXT();
L_blt:
  rpc = (R[ip->a] < R[ip->b]) ? ip->t : rpc + 1;
  ST_NEXT();
L_bge:
  rpc = (R[ip->a] >= R[ip->b]) ? ip->t : rpc + 1;
  ST_NEXT();
L_bltu:
  rpc = (static_cast<std::uint64_t>(R[ip->a]) < static_cast<std::uint64_t>(R[ip->b]))
            ? ip->t
            : rpc + 1;
  ST_NEXT();
L_bgeu:
  rpc = (static_cast<std::uint64_t>(R[ip->a]) >= static_cast<std::uint64_t>(R[ip->b]))
            ? ip->t
            : rpc + 1;
  ST_NEXT();
L_getmaxe:
  R[ip->d] = W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
  ++rpc;
  ST_NEXT();
L_halt:
  W.pc = rpc;
  result_ = R[0];
  W.halted = true;
  goto engine_exit;
L_badpc:  // defensive: ST_FETCH range-checks before indexing, so the
  ++budget;  // sentinel is normally unreachable; it retires nothing
  W.pc = rpc;
  fail(w, "pc out of code range");

  // ---- superinstructions ----------------------------------------------
  // Each handler executes its components in architectural order, reading
  // registers only after earlier components' writes (so intra-group
  // register dependencies behave exactly as in sequential execution) and
  // decrementing budget before each component's first fault point.
L_s_addi_ld: {
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  R[ip->c] = m0[a];
  rpc += 2;
  ST_NEXT();
}
L_s_addi_st: {
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  m0[a] = R[ip->c];
  rpc += 2;
  ST_NEXT();
}
L_s_subi_st: {
  R[ip->d] = R[ip->a] - ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  m0[a] = R[ip->c];
  rpc += 2;
  ST_NEXT();
}
L_s_st_addi: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  m0[a] = R[ip->d];
  --budget;
  R[ip->c] = R[ip->b] + ip->imm2;
  rpc += 2;
  ST_NEXT();
}
L_s_st_li: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  m0[a] = R[ip->d];
  --budget;
  R[ip->c] = ip->imm2;
  rpc += 2;
  ST_NEXT();
}
L_s_st_ld: {
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  m0[a1] = R[ip->d];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  R[ip->c] = m0[a2];
  rpc += 2;
  ST_NEXT();
}
L_s_st_st: {
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  m0[a1] = R[ip->d];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  m0[a2] = R[ip->c];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_st: {
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  R[ip->d] = m0[a1];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  m0[a2] = R[ip->c];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_ld: {
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  R[ip->d] = m0[a1];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  R[ip->c] = m0[a2];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_mov: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_add: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b] + R[ip->e];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_sub: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b] - R[ip->e];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_mul: {
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b] * R[ip->e];
  rpc += 2;
  ST_NEXT();
}
L_s_ld_jr: {  // the unaugmented epilogue tail: ld lr,[fp-1]; jr lr
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  const Addr target = R[ip->b];
  if (__builtin_expect(target >= kBuiltinBase, 0)) {
    W.pc = rpc + 1;  // the jr's own architectural pc
    if (target < kTrampBase) fail(w, "jr into a builtin");
    take_trampoline(w, target);
    ST_RESYNC();
  }
  rpc = target;
  ST_NEXT();
}
L_s_mov_ld: {
  R[ip->d] = R[ip->a];
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  R[ip->c] = m0[a];
  rpc += 2;
  ST_NEXT();
}
L_s_li_st: {
  R[ip->d] = ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  m0[a] = R[ip->c];
  rpc += 2;
  ST_NEXT();
}
L_s_li_call:  // argument-staging li + code-to-code call (never a builtin)
  R[ip->d] = ip->imm;
  --budget;
  R[kLr] = rpc + 2;
  rpc = ip->t;
  ST_NEXT();
L_s_li_beq:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (R[ip->a] == R[ip->b]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_li_bne:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (R[ip->a] != R[ip->b]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_li_blt:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (R[ip->a] < R[ip->b]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_li_bge:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (R[ip->a] >= R[ip->b]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_li_bltu:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->a]) < static_cast<std::uint64_t>(R[ip->b]))
            ? ip->t
            : rpc + 2;
  ST_NEXT();
L_s_li_bgeu:
  R[ip->d] = ip->imm;
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->a]) >= static_cast<std::uint64_t>(R[ip->b]))
            ? ip->t
            : rpc + 2;
  ST_NEXT();
L_s_addi_beq:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (R[ip->b] == R[ip->c]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_addi_bne:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (R[ip->b] != R[ip->c]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_addi_blt:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (R[ip->b] < R[ip->c]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_addi_bge:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (R[ip->b] >= R[ip->c]) ? ip->t : rpc + 2;
  ST_NEXT();
L_s_addi_bltu:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->b]) < static_cast<std::uint64_t>(R[ip->c]))
            ? ip->t
            : rpc + 2;
  ST_NEXT();
L_s_addi_bgeu:
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->b]) >= static_cast<std::uint64_t>(R[ip->c]))
            ? ip->t
            : rpc + 2;
  ST_NEXT();
L_s_add_jmp:  // join-and-continue: add d,a,b ; jmp t
  R[ip->d] = R[ip->a] + R[ip->b];
  --budget;
  rpc = ip->t;
  ST_NEXT();
L_s_addi_jmp:  // loop back-edge: bump a register, jump to the guard
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  rpc = ip->t;
  ST_NEXT();
L_s_mov_jmp:  // free the frame, jump over the retire arm
  R[ip->d] = R[ip->a];
  --budget;
  rpc = ip->t;
  ST_NEXT();
L_s_mov_addi:
  R[ip->d] = R[ip->a];
  --budget;
  R[ip->c] = R[ip->b] + ip->imm2;
  rpc += 2;
  ST_NEXT();
L_s_st_call: {  // push arg, code-to-code call (never a builtin)
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  m0[a] = R[ip->d];
  --budget;
  R[kLr] = rpc + 2;
  rpc = ip->t;
  ST_NEXT();
}
L_s_subi_st_call: {  // compute arg, push at [sp+k], call
  R[ip->d] = R[ip->a] - ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  m0[a] = R[ip->c];
  --budget;
  R[kLr] = rpc + 3;
  rpc = ip->t;
  ST_NEXT();
}
L_s_addi_st_call: {
  R[ip->d] = R[ip->a] + ip->imm;
  --budget;
  const Addr a = R[ip->b] + ip->imm2;
  ST_CHK(a, rpc + 1);
  m0[a] = R[ip->c];
  --budget;
  R[kLr] = rpc + 3;
  rpc = ip->t;
  ST_NEXT();
}
L_s_ld_st_call: {
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  R[ip->d] = m0[a1];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  m0[a2] = R[ip->c];
  --budget;
  R[kLr] = rpc + 3;
  rpc = ip->t;
  ST_NEXT();
}
L_s_ld_add_jmp: {  // join tail: ld d,[a+imm] ; add c,b,e ; jmp t
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b] + R[ip->e];
  --budget;
  rpc = ip->t;
  ST_NEXT();
}
L_s_ld_ld_mov: {  // ld d,[a+imm] ; ld c,[b+imm2] ; mov e,(reg)t
  const Addr a1 = R[ip->a] + ip->imm;
  ST_CHK(a1, rpc);
  R[ip->d] = m0[a1];
  --budget;
  const Addr a2 = R[ip->b] + ip->imm2;
  ST_CHK(a2, rpc + 1);
  R[ip->c] = m0[a2];
  --budget;
  R[ip->e] = R[ip->t];
  rpc += 3;
  ST_NEXT();
}
L_s_ld_epilogue: {  // ld d,[a+imm] ; getmaxe c ; bgeu e,c,t ; bgeu b,(reg)imm2,t2
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
  --budget;
  if (static_cast<std::uint64_t>(R[ip->e]) >= static_cast<std::uint64_t>(R[ip->c])) {
    // Early exit retires only 3 of the group's 4 instructions: when
    // counting, re-attribute this dispatch to its plain components so
    // sum(count[h] * run_op_len(h)) == stats().instructions stays exact.
    if (__builtin_expect((flags & kEngineCount) != 0, 0)) {
      --op_retired_[static_cast<std::size_t>(RunOp::kSupLdEpilogue)];
      ++op_retired_[static_cast<std::size_t>(RunOp::kLd)];
      ++op_retired_[static_cast<std::size_t>(RunOp::kGetMaxE)];
      ++op_retired_[static_cast<std::size_t>(RunOp::kBgeu)];
    }
    rpc = ip->t;
    ST_NEXT();
  }
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->b]) >= static_cast<std::uint64_t>(R[ip->imm2]))
            ? ip->t2
            : rpc + 4;
  ST_NEXT();
}
L_s_sum_loop: {  // ld d,[a+imm] ; add c,b,e ; addi (reg)t2 += imm2 ; jmp t
  const Addr a = R[ip->a] + ip->imm;
  ST_CHK(a, rpc);
  R[ip->d] = m0[a];
  --budget;
  R[ip->c] = R[ip->b] + R[ip->e];
  --budget;
  R[ip->t2] = R[ip->t2] + ip->imm2;
  --budget;
  rpc = ip->t;
  ST_NEXT();
}
L_s_epilogue: {  // getmaxe d ; bgeu a,d,t ; bgeu b,c,t2 (the 5.2 splice)
  const Word maxe = W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
  R[ip->d] = maxe;
  --budget;
  if (static_cast<std::uint64_t>(R[ip->a]) >= static_cast<std::uint64_t>(R[ip->d])) {
    // Early exit retires 2 of 3: re-attribute as for kSupLdEpilogue.
    if (__builtin_expect((flags & kEngineCount) != 0, 0)) {
      --op_retired_[static_cast<std::size_t>(RunOp::kSupEpilogue)];
      ++op_retired_[static_cast<std::size_t>(RunOp::kGetMaxE)];
      ++op_retired_[static_cast<std::size_t>(RunOp::kBgeu)];
    }
    rpc = ip->t;
    ST_NEXT();
  }
  --budget;
  rpc = (static_cast<std::uint64_t>(R[ip->b]) >= static_cast<std::uint64_t>(R[ip->c]))
            ? ip->t2
            : rpc + 3;
  ST_NEXT();
}

quantum_done:
  W.pc = rpc;
engine_exit:
  return;

#undef ST_FETCH
#undef ST_NEXT
#undef ST_RESYNC
#undef ST_CHK
}

#else  // non-GNU toolchains: the constructor never selects this engine

void Vm::exec_quantum_threaded(unsigned w, int budget) {
  (void)w;
  (void)budget;
  throw VmError("threaded dispatch requires the GNU labels-as-values extension");
}

#endif

// ---------------------------------------------------------------------
// The baseline JIT engine (jit.hpp; DESIGN.md §5.13).
//
// One quantum per call.  Native blocks run until the budget is spent or
// a cold instruction is reached; the cold instruction is then executed
// by exec_instr -- the portable switch engine IS the seam, so builtins,
// trampoline takes, halt and every fault produce the oracle's exact
// state transitions, messages and stats.  Invariants:
//  - native code charges the budget once per architectural instruction,
//    before that instruction's first side effect, and a cold exit always
//    carries the pc of the *unexecuted* instruction with its budget
//    intact -- so stats_.instructions (folded from the budget delta) and
//    per-quantum interleaving are bit-identical to both interpreters;
//  - the getmaxe sentinel is refreshed at every native entry: the
//    exported set only changes inside builtins / trampolines / steal
//    service, all of which pass through the exec_instr seam first;
//  - memory_ never reallocates after construction, so the base address
//    baked into the blocks stays valid across builtins.
// ---------------------------------------------------------------------

void Vm::exec_quantum_jit(unsigned w, int budget) {
  auto& W = workers_[w];
  const std::int64_t code_size = static_cast<std::int64_t>(code_.size());
  while (budget > 0 && !W.idle && !W.halted && !result_.has_value()) {
    if (W.pc < 0 || W.pc >= code_size) {
      exec_instr(w);  // throws the canonical "pc out of code range"
      continue;
    }
    if (jit_->cold_at(W.pc)) {
      // Bare cold slot (builtin call, halt, ...): single-step directly,
      // skipping the native enter/exit round trip.
      --budget;
      exec_instr(w);
      continue;
    }
    // A native stretch can grow the host stack by up to 8 bytes per
    // executed instruction (a call whose return is redirected leaves its
    // frame until the exit stub unwinds), so huge quanta run as several
    // back-to-back stretches -- architecturally invisible, since nothing
    // observes the seam between them.
    constexpr int kMaxStretch = 1 << 16;
    const int stretch = budget < kMaxStretch ? budget : kMaxStretch;
    jit_state_.regs = W.regs.data();
    jit_state_.budget = stretch;
    jit_state_.pc = W.pc;
    jit_state_.maxe = W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
    jit_->enter();
    const int executed = stretch - static_cast<int>(jit_state_.budget);
    stats_.instructions += static_cast<std::uint64_t>(executed);
    budget -= executed;
    W.pc = static_cast<Addr>(jit_state_.pc);
    if (jit_state_.exit_cold == 0) continue;  // stretch spent; loop re-checks budget
    if (budget <= 0) break;  // cold instruction landed on the quantum boundary
    --budget;
    exec_instr(w);  // oracle single-step (counts its own stats/histogram)
  }
}

void Vm::take_trampoline(unsigned w, Addr token) {
  auto it = trampolines_.find(token);
  if (it == trampolines_.end()) fail(w, "return through a dead trampoline token");
  const Trampoline t = it->second;
  trampolines_.erase(it);
  ++stats_.trampolines_taken;
  auto& W = workers_[w];
  switch (t.kind) {
    case Trampoline::Kind::kUser:
      // The invalid-frame fix (Section 3.4): restore the callee-saved
      // registers captured when restart was called.
      for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = t.saved[i];
      W.pc = t.ret_pc;
      break;
    case Trampoline::Kind::kScheduler:
      W.idle = true;
      W.regs[kFp] = 0;
      break;
    case Trampoline::Kind::kHalt:
      result_ = W.regs[0];
      W.halted = true;
      break;
  }
}

// ---------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------

void Vm::do_builtin(unsigned w, int id) {
  auto& W = workers_[w];
  const Addr sp = W.regs[kSp];
  switch (id) {
    case kBAlloc:
      W.regs[0] = alloc_heap(read_mem(sp + 0));
      break;
    case kBPrint:
      output_.push_back(read_mem(sp + 0));
      break;
    case kBWorkerId:
      W.regs[0] = static_cast<Word>(w);
      break;
    case kBNumWorkers:
      W.regs[0] = static_cast<Word>(cfg_.workers);
      break;
    case kBExit:
      result_ = read_mem(sp + 0);
      W.halted = true;
      break;
    case kBForkBegin:
    case kBForkEnd:
      break;  // only reachable in unpostprocessed code; inert markers
    case kBSuspend: {
      const Addr ctx = read_mem(sp + 0);
      const Word n = read_mem(sp + 1);
      if (n < 1) fail(w, "suspend with n < 1");
      ++stats_.suspends;
      trace(stu::kTraceVmSuspend, w, static_cast<std::uint64_t>(ctx),
            static_cast<std::uint64_t>(n));
      const UnwindResult r = unwind(w, ctx, W.regs[kLr], W.regs[kFp], n);
      // Whoever later restarts ctx (possibly on another worker after a
      // steal) acquires everything this logical thread did up to here.
      note_hb_release(w, ctx);
      apply_unwind(w, r);
      break;
    }
    case kBSuspendPublish: {
      // suspend(ctx, 1) + publish the context pointer into a shared slot,
      // atomically w.r.t. other workers (the VM's builtin granularity is
      // the analog of the runtime's internal locking).
      const Addr ctx = read_mem(sp + 0);
      const Addr slot = read_mem(sp + 1);
      ++stats_.suspends;
      trace(stu::kTraceVmSuspend, w, static_cast<std::uint64_t>(ctx), 1);
      const UnwindResult r = unwind(w, ctx, W.regs[kLr], W.regs[kFp], 1);
      note_hb_release(w, ctx);
      mem(slot) = ctx;
      // The publish is atomic at builtin granularity: mark the slot a
      // synchronization cell so the Figure-8 finisher's plain-load spin
      // on it pairs with this write instead of racing it.
      note_access(w, slot, stu::kSchedAccessAtomic);
      apply_unwind(w, r);
      break;
    }
    case kBRestart: {
      const Addr ctx = read_mem(sp + 0);
      ++stats_.restarts;
      do_restart(w, ctx, W.regs[kLr], W.regs[kFp], /*from_scheduler=*/false);
      break;
    }
    case kBResume: {
      const Addr ctx = read_mem(sp + 0);
      ++stats_.resumes;
      note_hb_release(w, ctx);  // readyq/steal consumers acquire at restart
      W.readyq.push_tail(ctx);
      work_dirty_ = true;
      break;
    }
    case kBPoll: {
      const bool migrated = serve_steal(w, W.regs[kLr], W.regs[kFp], /*running=*/true);
      if (!migrated) shrink(w, W.regs[kLr]);
      break;
    }
    default:
      fail(w, "unknown builtin " + std::to_string(id));
  }
}

// ---------------------------------------------------------------------
// Frame surgery
// ---------------------------------------------------------------------

Vm::UnwindResult Vm::unwind(unsigned w, Addr ctx, Addr resume_pc, Addr fp, Word n) {
  auto& W = workers_[w];
  mem(ctx + kCtxPc) = resume_pc;
  mem(ctx + kCtxFp) = fp;
  for (int i = 0; i < 4; ++i) mem(ctx + kCtxRegs + i) = W.regs[kFirstCalleeSaved + i];

  Addr cur_pc = resume_pc;
  Addr cur_fp = fp;
  Word forks = 0;
  UnwindResult r;

  for (;;) {
    const ProcDescriptor* d = proc_of(cur_pc, "unwind");
    if (!d->has_frame) fail(w, "cannot unwind frameless procedure " + d->name);
    // Export the frame being detached (Section 5: every unwound *local*
    // frame enters the exported set -- the model's {u_i | u_i > 0}; a
    // foreign frame is already exported at its home worker, whose SP is
    // what its liveness constrains).  It is retained in place either way.
    if (is_local(w, cur_fp)) {
      W.exported.push({cur_fp, cur_fp - d->frame_size, cur_fp + d->ra_offset});
    }
    mem(ctx + kCtxBottomFp) = cur_fp;
    mem(ctx + kCtxBottomRaSlot) = cur_fp + d->ra_offset;
    mem(ctx + kCtxBottomPfpSlot) = cur_fp + d->pfp_offset;
    ++stats_.frames_unwound;

    const Addr ra = read_mem(cur_fp + d->ra_offset);
    const Addr parent_fp = read_mem(cur_fp + d->pfp_offset);
    // Pure-epilogue semantics: restore this procedure's callee-saves
    // without touching SP (the replica code emitted by the postprocessor
    // does exactly these loads; tests check the replica matches).
    for (std::size_t k = 0; k < d->saved_regs.size(); ++k) {
      W.regs[d->saved_regs[k]] = read_mem(cur_fp + d->saved_offsets[k]);
    }

    bool was_fork = false;
    Addr next_pc = 0;
    if (ra >= kTrampBase) {
      auto it = trampolines_.find(ra);
      if (it == trampolines_.end()) fail(w, "unwind through a dead trampoline");
      const Trampoline t = it->second;
      trampolines_.erase(it);
      for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = t.saved[i];
      was_fork = t.is_fork;
      if (t.kind == Trampoline::Kind::kHalt) fail(w, "suspend unwound past the main thread");
      if (t.kind == Trampoline::Kind::kScheduler) {
        if (was_fork) ++forks;
        if (forks >= n) {
          r.reached_scheduler = true;
          if (stu::metrics_enabled()) exported_depth_.record(W.exported.size());
          return r;
        }
        fail(w, "suspend unwound past the scheduler");
      }
      next_pc = t.ret_pc;
    } else {
      if (ra == 0) fail(w, "unwind through a retired frame");
      const ProcDescriptor* pd = proc_of(ra, "unwind parent");
      was_fork = is_fork_point(pd, ra - 1);
      next_pc = ra;
    }
    cur_pc = next_pc;
    cur_fp = parent_fp;
    if (was_fork) {
      ++forks;
      if (forks >= n) break;
    }
  }
  r.resume_pc = cur_pc;
  r.fp = cur_fp;
  if (stu::metrics_enabled()) exported_depth_.record(W.exported.size());
  return r;
}

void Vm::apply_unwind(unsigned w, const UnwindResult& r) {
  auto& W = workers_[w];
  if (r.reached_scheduler) {
    W.idle = true;
    W.regs[kFp] = 0;
    return;
  }
  W.pc = r.resume_pc;
  W.regs[kFp] = r.fp;
  W.regs[0] = 0;  // the fork "returns" without a value when the child blocks
  extend_if_needed(w, r.resume_pc);
}

void Vm::do_restart(unsigned w, Addr ctx, Addr ret_pc, Addr f_fp, bool from_scheduler) {
  auto& W = workers_[w];
  work_dirty_ = true;
  trace(stu::kTraceVmRestart, w, static_cast<std::uint64_t>(ctx),
        from_scheduler ? 1 : 0);
  // Every path a continuation travels (readyq pop, steal reply, Figure-9
  // migration, user restart) funnels through here: pair the suspender's
  // release so the restarting worker inherits its history.
  note_hb_acquire(w, ctx);
  const Addr bottom_fp = read_mem(ctx + kCtxBottomFp);
  const Addr ra_slot = read_mem(ctx + kCtxBottomRaSlot);
  const Addr pfp_slot = read_mem(ctx + kCtxBottomPfpSlot);

  Trampoline t;
  t.owner = w;
  for (int i = 0; i < 4; ++i) t.saved[i] = W.regs[kFirstCalleeSaved + i];
  if (from_scheduler) {
    t.kind = Trampoline::Kind::kScheduler;
    t.is_fork = true;  // ST_THREAD_CREATE(restart(...)) in Figure 12
  } else {
    t.kind = Trampoline::Kind::kUser;
    t.ret_pc = ret_pc;
    const ProcDescriptor* pd = proc_of(ret_pc, "restart caller");
    t.is_fork = is_fork_point(pd, ret_pc - 1);
  }
  // The Figure 7 slot surgery: make the chain bottom look as if it had
  // been called from the restarter.
  mem(ra_slot) = make_trampoline(t);
  mem(pfp_slot) = from_scheduler ? 0 : f_fp;

  // First Section 5.3 subtlety: export the restarter's frame when it is
  // physically above the chain bottom within this stack (or the bottom is
  // foreign) -- otherwise a later shrink could discard it.
  if (!from_scheduler && is_local(w, f_fp) &&
      (!is_local(w, bottom_fp) || f_fp < bottom_fp)) {
    const ProcDescriptor* fd = proc_of(ret_pc, "restarter frame");
    W.exported.push({f_fp, f_fp - fd->frame_size, f_fp + fd->ra_offset});
  }

  for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = read_mem(ctx + kCtxRegs + i);
  W.regs[kFp] = read_mem(ctx + kCtxFp);
  W.pc = read_mem(ctx + kCtxPc);
  W.regs[0] = 0;  // the resumed suspend call returns 0
  W.idle = false;
  extend_if_needed(w, W.pc);
}

bool Vm::serve_steal(unsigned w, Addr resume_pc, Addr fp, bool running) {
  auto& W = workers_[w];
  if (W.steal_request_from < 0) return false;
  const int thief = W.steal_request_from;
  W.steal_request_from = -1;
  work_dirty_ = true;  // a reply (even a rejection) is posted below
  auto& T = workers_[static_cast<std::size_t>(thief)];

  // Figure 12: hand out the readyq tail when there is one.
  if (!W.readyq.empty()) {
    T.steal_reply = W.readyq.pop_tail();
    ++stats_.steals_served;
    return false;
  }
  if (running) {
    const Word forks = count_forks(resume_pc, fp);
    if (forks >= 2) {
      // Figure 9: pull the bottom-most thread out of the logical stack --
      // suspend everything above it, suspend it, hand it over, restart
      // the rest.  Control ends up exactly where poll was called.
      const Addr c1 = alloc_heap(kCtxWords);
      const Addr c2 = alloc_heap(kCtxWords);
      ++stats_.suspends;
      const UnwindResult s1 = unwind(w, c1, resume_pc, fp, forks - 1);
      ++stats_.suspends;
      const UnwindResult s2 = unwind(w, c2, s1.resume_pc, s1.fp, 1);
      note_hb_release(w, c2);  // the thief acquires at its do_restart
      T.steal_reply = c2;
      ++stats_.steals_served;
      ++stats_.restarts;
      trace(stu::kTraceVmMigrate, w, static_cast<std::uint64_t>(c2),
            static_cast<std::uint64_t>(thief));
      do_restart(w, c1, s2.resume_pc, s2.fp, s2.reached_scheduler);
      return true;
    }
  }
  T.steal_reply = kRejected;
  ++stats_.steals_rejected;
  return false;
}

Word Vm::count_forks(Addr resume_pc, Addr fp) const {
  Word forks = 0;
  Addr pc = resume_pc;
  Addr f = fp;
  for (;;) {
    const ProcDescriptor* d = table_.find(pc);
    if (d == nullptr || !d->has_frame) break;
    const Addr ra = read_mem(f + d->ra_offset);
    const Addr pf = read_mem(f + d->pfp_offset);
    if (ra >= kTrampBase) {
      auto it = trampolines_.find(ra);
      if (it == trampolines_.end()) break;
      if (it->second.is_fork) ++forks;
      if (it->second.kind != Trampoline::Kind::kUser) break;  // scheduler/halt
      pc = it->second.ret_pc;
    } else {
      if (ra == 0) break;
      const ProcDescriptor* pd = table_.find(ra);
      if (is_fork_point(pd, ra - 1)) ++forks;
      pc = ra;
    }
    f = pf;
  }
  return forks;
}

void Vm::shrink(unsigned w, Addr cur_pc) {
  auto& W = workers_[w];
  std::uint64_t popped_count = 0;
  while (!W.exported.empty() && read_mem(W.exported.max().ra_slot) == 0) {
    W.exported.pop_max();
    ++stats_.shrink_reclaimed;
    ++popped_count;
  }
  if (popped_count == 0) return;
  trace(stu::kTraceVmShrink, w, popped_count);

  const bool have_f1 = !W.idle && cur_pc >= 0 && is_local(w, W.regs[kFp]);
  const Addr max_e_fp = W.exported.empty() ? kAddrMax : W.exported.max().fp;
  if (have_f1 && W.regs[kFp] <= max_e_fp) {
    // The current frame is the (weakly) topmost live frame: SP goes to its
    // natural top; no extension needed.
    const ProcDescriptor* d = proc_of(cur_pc, "shrink");
    if (d->has_frame) {
      W.regs[kSp] = W.regs[kFp] - d->frame_size;
      return;
    }
  }
  if (!W.exported.empty()) {
    W.regs[kSp] = W.exported.max().top;
    extend_if_needed(w, cur_pc);  // the exported frame owns the top now
  } else if (!have_f1) {
    W.regs[kSp] = W.stack_hi;  // everything reclaimed
  }
}

void Vm::extend_if_needed(unsigned w, Addr cur_pc) {
  auto& W = workers_[w];
  const Addr sp = W.regs[kSp];
  // Prune stale extension marks above the current top.
  for (auto it = W.extended_sps.begin(); it != W.extended_sps.end();) {
    it = (*it < sp) ? W.extended_sps.erase(it) : std::next(it);
  }
  if (W.extended_sps.count(sp) != 0) return;  // already extended here
  // Does the executing frame own the physical top?  Then no extension is
  // required (Invariant 2 is vacuous).
  if (cur_pc >= 0 && is_local(w, W.regs[kFp])) {
    const ProcDescriptor* d = table_.find(cur_pc);
    if (d != nullptr && d->has_frame && W.regs[kFp] - d->frame_size == sp) return;
  }
  if (max_args_ <= 0) return;
  W.regs[kSp] = sp - max_args_;
  W.extended_sps.insert(W.regs[kSp]);
}

// ---------------------------------------------------------------------
// Introspection / metrics
// ---------------------------------------------------------------------

std::string Vm::dump_logical_stacks() const {
  constexpr int kMaxFrames = 64;
  std::ostringstream os;
  os << "== stvm logical-stack dump: " << cfg_.workers << " worker(s) ==\n";

  // Frame chain walk via the descriptor table -- the introspective twin
  // of count_forks().  Read-only and bounds-checked: a corrupted chain
  // ends the walk instead of faulting.
  auto walk = [&](unsigned w, Addr pc, Addr fp, const char* label) {
    const auto& W = workers_[w];
    os << "  " << label << " chain (newest first):\n";
    int depth = 0;
    for (;;) {
      if (++depth > kMaxFrames) {
        os << "    ... (truncated at " << kMaxFrames << " frames)\n";
        return;
      }
      const ProcDescriptor* d = table_.find(pc);
      if (d == nullptr) {
        os << "    <no descriptor for pc=" << pc << ">\n";
        return;
      }
      if (!d->has_frame) {
        os << "    " << d->name << " (frameless) pc=" << pc << "\n";
        return;
      }
      if (fp < 1 || fp + std::max(d->ra_offset, d->pfp_offset) >=
                        static_cast<Addr>(memory_.size())) {
        os << "    " << d->name << " fp=" << fp << " <fp out of range>\n";
        return;
      }
      const Addr ra = read_mem(fp + d->ra_offset);
      // Section-5 classification of this frame.
      const char* cls = "active";
      if (ra == 0) {
        cls = "R (retired)";
      } else {
        for (const auto& e : W.exported.raw()) {
          if (e.fp == fp) {
            cls = "E (exported)";
            break;
          }
        }
      }
      os << "    " << d->name << " fp=" << fp << " [" << cls << "]";
      if (ra >= kTrampBase) {
        auto it = trampolines_.find(ra);
        if (it == trampolines_.end()) {
          os << " -> <dead trampoline>\n";
          return;
        }
        const Trampoline& t = it->second;
        if (t.is_fork) os << " <- fork point";
        if (t.kind == Trampoline::Kind::kScheduler) {
          os << " <- scheduler (thread root)\n";
          return;
        }
        if (t.kind == Trampoline::Kind::kHalt) {
          os << " <- main (halt)\n";
          return;
        }
        os << "\n";
        pc = t.ret_pc;
      } else {
        if (ra == 0) {
          os << "\n";
          return;  // retired: the chain ends here for the walk
        }
        const ProcDescriptor* pd = table_.find(ra);
        if (is_fork_point(pd, ra - 1)) os << " <- fork point";
        os << "\n";
        pc = ra;
      }
      fp = read_mem(fp + d->pfp_offset);
    }
  };

  for (unsigned w = 0; w < cfg_.workers; ++w) {
    const auto& W = workers_[w];
    std::size_t retired = 0;
    for (const auto& e : W.exported.raw()) {
      if (e.ra_slot < static_cast<Addr>(memory_.size()) && read_mem(e.ra_slot) == 0) {
        ++retired;
      }
    }
    os << "worker " << w << ": " << (W.halted ? "halted" : W.idle ? "idle" : "running")
       << " pc=" << W.pc << " sp=" << W.regs[kSp] << " fp=" << W.regs[kFp]
       << " E=" << (W.exported.size() - retired) << " R=" << retired
       << " X=" << W.extended_sps.size() << " readyq=" << W.readyq.size() << "\n";
    if (!W.idle && !W.halted) walk(w, W.pc, W.regs[kFp], "running");
    for (std::size_t i = 0; i < W.readyq.size(); ++i) {
      const Addr ctx = W.readyq.peek(i);
      if (ctx + kCtxWords >= static_cast<Addr>(memory_.size())) continue;
      os << "  ready[" << i << "] ctx=" << ctx << ":\n";
      walk(w, read_mem(ctx + kCtxPc), read_mem(ctx + kCtxFp), "suspended");
    }
    for (const auto& e : W.exported.raw()) {
      const bool ret = e.ra_slot < static_cast<Addr>(memory_.size()) &&
                       read_mem(e.ra_slot) == 0;
      os << "  exported frame fp=" << e.fp << " top=" << e.top
         << " [" << (ret ? "R (retired, awaiting shrink)" : "E (exported/live)")
         << "]\n";
    }
  }
  return os.str();
}

std::string Vm::metrics_json() const {
  std::ostringstream os;
  os << "{\"kind\":\"stvm\",\"workers\":" << cfg_.workers << ","
     << "\"dispatch\":\"" << (jit_active_ ? "jit" : threaded_ ? "threaded" : "switch")
     << "\","
     << stu::counters_json(counter_rows(stats_)) << ",";
  os << "\"per_worker\":[";
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    const auto& W = workers_[w];
    std::size_t retired = 0;
    for (const auto& e : W.exported.raw()) {
      if (e.ra_slot < static_cast<Addr>(memory_.size()) && read_mem(e.ra_slot) == 0) {
        ++retired;
      }
    }
    os << (w ? "," : "") << "{\"id\":" << w << ",\"state\":\""
       << (W.halted ? "halted" : W.idle ? "idle" : "running") << "\""
       << ",\"sets\":{\"E\":" << (W.exported.size() - retired) << ",\"R\":" << retired
       << ",\"X\":" << W.extended_sps.size() << "}"
       << ",\"readyq\":" << W.readyq.size() << "}";
  }
  os << "],";
  os << "\"opcodes\":[";
  bool first = true;
  for (int i = 0; i < kNumRunOps; ++i) {
    const std::uint64_t n = op_retired_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    os << (first ? "" : ",") << "{\"op\":\"" << run_op_name(static_cast<RunOp>(i))
       << "\",\"retired\":" << n << "}";
    first = false;
  }
  os << "],";
  os << "\"histograms\":["
     << exported_depth_.snapshot().to_json("exported_depth", "frames") << "]}";
  return os.str();
}

}  // namespace stvm
