// Shared scaffolding for the paper-reproduction benches.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/csv.h"
#include "src/base/stats.h"
#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/psbox/psbox_manager.h"
#include "src/workloads/table5_apps.h"

namespace psbox {

// A full simulated system: board + kernel + psbox manager.
struct Stack {
  Board board;
  Kernel kernel;
  PsboxManager manager;

  explicit Stack(BoardConfig board_cfg = {}, KernelConfig kernel_cfg = {})
      : board(board_cfg), kernel(&board, kernel_cfg), manager(&kernel) {}
};

// Advances the simulation until |app| has finished (all tasks exited) or
// |limit| is reached; returns the finish time.
inline TimeNs RunUntilAppDone(Stack& s, AppId app, TimeNs limit) {
  while (!s.kernel.AppFinished(app) && s.kernel.Now() < limit) {
    s.kernel.RunUntil(s.kernel.Now() + 10 * kMillisecond);
  }
  PSBOX_CHECK(s.kernel.AppFinished(app));
  return s.kernel.Now();
}

// An app factory bound to everything but the kernel, so scenarios can be
// described as data.
using AppFactory = std::function<AppHandle(Kernel&, AppOptions)>;

inline std::string Mj(Joules j) { return FormatDouble(j * 1e3, 1) + " mJ"; }
// Appends rather than prepends: GCC 12 misreads the insert-at-front of
// `"+" + std::string` as an overlapping copy (-Wrestrict).
inline std::string Pct(double p) {
  std::string out = p >= 0 ? "+" : "";
  out += FormatDouble(p, 1);
  out += "%";
  return out;
}

}  // namespace psbox

#endif  // BENCH_BENCH_COMMON_H_
