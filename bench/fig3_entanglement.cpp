// Figure 3 — Examples of power entanglement (§2.3).
//
//   (a) Total CPU power of two co-running process instances, one per core,
//       vs 2x the power of one instance running alone: the doubled estimate
//       over-shoots because concurrently-active cores share the rail.
//   (b) A sequence of three GPU commands and the total GPU power: command 2
//       overlaps command 1 in time, so commands 2 and 3 (same type) show
//       different apparent power/energy to the CPU side.
//   (c) CPU power of the same app when it runs after an idle period vs right
//       after a busy workload: the DVFS governor's lingering operating point
//       changes the power of the successor.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/analysis/trace_util.h"
#include "src/sim/callback_target.h"

namespace psbox {
namespace {

// --- (a) spatial concurrency ------------------------------------------------

void PanelA() {
  std::printf("\n--- Fig 3a: 2 instances vs doubled 1 instance (CPU rail) ---\n");
  auto run = [](int instances) {
    Stack s;
    for (int i = 0; i < instances; ++i) {
      AppOptions opts;
      opts.deadline = Seconds(1);
      SpawnBodytrack(s.kernel, "inst" + std::to_string(i), opts);
    }
    s.kernel.RunUntil(Seconds(1));
    // Mean power over the steady phase (skip the governor ramp).
    return s.board.cpu_rail().trace().MeanOver(Millis(200), Millis(900));
  };
  const Watts one = run(1);
  const Watts two = run(2);
  TextTable table({"configuration", "mean CPU power", "vs naive 2x"});
  table.AddRow({"1 instance", FormatDouble(one, 3) + " W", ""});
  table.AddRow({"1 instance doubled (naive)", FormatDouble(2 * one, 3) + " W", "(ref)"});
  table.AddRow({"2 instances (measured)", FormatDouble(two, 3) + " W",
                Pct(PercentDelta(2 * one, two))});
  table.Print(std::cout);
  std::printf("Expected shape: measured 2-instance power < doubled estimate\n"
              "(entangled active cores share uncore power and rail headroom).\n");
}

// --- (b) blurry request boundary ---------------------------------------------

void PanelB() {
  std::printf("\n--- Fig 3b: three GPU commands, cmd 2 overlaps cmd 1 ---\n");
  Board board;
  AccelDevice& gpu = board.gpu();
  struct Done {
    uint64_t id;
    TimeNs dispatch;
    TimeNs end;
  };
  std::vector<Done> done;
  gpu.set_on_complete([&](const AccelCompletion& c) {
    done.push_back({c.cmd.id, c.dispatch_time, c.end_time});
  });
  // Command 1: long type-A command. Commands 2 and 3: same type B.
  AccelCommand c1{1, 0, /*type=*/1, 8 * kMillisecond, 0.8};
  AccelCommand c2{2, 1, /*type=*/2, 5 * kMillisecond, 0.6};
  AccelCommand c3{3, 1, /*type=*/2, 5 * kMillisecond, 0.6};
  CallbackTarget callbacks(&board.sim());
  callbacks.At(Millis(1), [&] { gpu.Dispatch(c1); });
  callbacks.At(Millis(4), [&] { gpu.Dispatch(c2); });  // overlaps c1
  callbacks.At(Millis(16), [&] { gpu.Dispatch(c3); }); // runs alone
  board.sim().RunUntil(Millis(30));

  TextTable table({"command", "span (CPU-visible)", "apparent energy", "note"});
  for (const Done& d : done) {
    const Joules e = board.gpu_rail().EnergyOver(d.dispatch, d.end) -
                     board.gpu_rail().idle_power() * ToSeconds(d.end - d.dispatch);
    std::string note;
    if (d.id == 1) {
      note = "type A";
    } else if (d.id == 2) {
      note = "type B, overlaps cmd 1";
    } else {
      note = "type B, runs alone";
    }
    table.AddRow({"cmd " + std::to_string(d.id),
                  FormatDouble(ToMillis(d.end - d.dispatch), 2) + " ms",
                  Mj(e), note});
  }
  table.Print(std::cout);
  const auto series = DownsampleTrace(board.gpu_rail().trace(), 0, Millis(25), 60);
  std::printf("GPU power 0-25 ms: [%s]\n", Sparkline(series).c_str());
  std::printf("Expected shape: cmds 2 and 3 are the same type, but cmd 2's\n"
              "span/energy is entangled with cmd 1 (stretched + superposed).\n");
}

// --- (c) lingering power state ------------------------------------------------

void PanelC() {
  std::printf("\n--- Fig 3c: exec after idle vs exec after busy (CPU rail) ---\n");
  auto run = [](bool predecessor) {
    Stack s;
    if (predecessor) {
      AppOptions busy;
      busy.deadline = Millis(500);
      SpawnBodytrack(s.kernel, "predecessor", busy);
    }
    s.kernel.RunUntil(Millis(500));
    AppOptions opts;
    opts.iterations = 30;
    AppHandle app = SpawnDedup(s.kernel, "app", opts);
    RunUntilAppDone(s, app.app, Seconds(3));
    const TimeNs t0 = app.stats->start_time;
    // Power over the app's first 40 ms: within the governor's decay window,
    // where the lingering OPP from the predecessor dominates.
    return s.board.cpu_rail().trace().MeanOver(t0, t0 + Millis(40));
  };
  const Watts after_idle = run(false);
  const Watts after_busy = run(true);
  TextTable table({"scenario", "mean power (first 40 ms)"});
  table.AddRow({"exec after idle", FormatDouble(after_idle, 3) + " W"});
  table.AddRow({"exec after busy", FormatDouble(after_busy, 3) + " W"});
  table.Print(std::cout);
  std::printf("Expected shape: after-busy draws noticeably more power — the\n"
              "governor's raised clock lingers into the successor (Fig 3c).\n");
}

}  // namespace
}  // namespace psbox

int main() {
  std::printf("Figure 3: the three causes of power entanglement.\n");
  psbox::PanelA();
  psbox::PanelB();
  psbox::PanelC();
  return 0;
}
