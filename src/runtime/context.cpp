#include "runtime/context.hpp"

#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define ST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ST_ASAN 1
#endif
#endif
#ifdef ST_ASAN
#include <sanitizer/asan_interface.h>
#endif

#if !defined(__x86_64__)
#error "StackThreads/MP native runtime currently implements x86-64 SysV only; \
the paper's multi-ISA portability story is reproduced by the STVM substrate."
#endif

namespace st {

extern "C" void st_ctx_boot();  // assembly trampoline (context_x86_64.S)

void* st_ctx_prepare(void* stack_base, std::size_t size, ContextEntry fn, void* arg) noexcept {
#ifdef ST_ASAN
  // A reused stacklet still carries the shadow redzones of frames that
  // were left (switched away from, never returned) on it; the slot
  // stores below, and the new context's frames, must not trip on them.
  __asan_unpoison_memory_region(stack_base, size);
#endif
  // Highest 16-byte-aligned address within the stack.
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + size;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* slots = reinterpret_cast<std::uintptr_t*>(top);
  slots[-1] = reinterpret_cast<std::uintptr_t>(arg);
  slots[-2] = reinterpret_cast<std::uintptr_t>(fn);
  slots[-3] = reinterpret_cast<std::uintptr_t>(&st_ctx_boot);  // resume point
  for (int i = 4; i <= 9; ++i) slots[-i] = 0;  // rbp, rbx, r12..r15
  return slots - 9;
}

}  // namespace st
