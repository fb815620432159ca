// §6.2 — Performance impact of psbox, plus the design-choice ablations from
// DESIGN.md §4.
//
// Latency increase: all apps may see extra latency on hardware access that
// triggers a resource-balloon switch. Paper: CPU scheduling latency up by
// tens of µs (task shootdown); GPU/DSP command dispatch up by ~1.8 ms /
// ~100 ms; WiFi TX sometimes hundreds of ms. Throughput loss: total hardware
// throughput drops from lost sharing (paper: 0.9 % WiFi … 9.8 % CPU).
//
// Ablations:
//   * no loan billing/repayment  — the balloon's cost leaks to co-runners;
//   * no power-state virtualisation — the sandbox's observed energy varies
//     with co-runners' DVFS residue (consistency broken).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"

namespace psbox {
namespace {

struct LatencyRow {
  std::string component;
  double base;
  double with_psbox;
  std::string unit;
  double tput_base;
  double tput_psbox;
};

template <typename SpawnMain, typename SpawnCo>
LatencyRow MeasureComponent(
    const std::string& name, SpawnMain spawn_main, SpawnCo spawn_co,
    const std::function<double(Stack&)>& latency, const std::string& unit,
    TimeNs window,
    const std::function<double(Stack&, const AppHandle&, const AppHandle&)>&
        throughput = {}) {
  auto run = [&](bool sandbox) {
    Stack s;
    AppOptions main_opts;
    main_opts.deadline = window;
    main_opts.use_psbox = sandbox;
    AppHandle main_app = spawn_main(s.kernel, main_opts);
    AppOptions co_opts;
    co_opts.deadline = window;
    AppHandle co_app = spawn_co(s.kernel, co_opts);
    s.kernel.RunUntil(window + Millis(20));
    const double lat = latency(s);
    const double tput =
        throughput ? throughput(s, main_app, co_app)
                   : static_cast<double>(main_app.stats->iterations +
                                         co_app.stats->iterations);
    return std::make_pair(lat, tput);
  };
  const auto [base_lat, base_tput] = run(false);
  const auto [psbox_lat, psbox_tput] = run(true);
  return {name, base_lat, psbox_lat, unit, base_tput, psbox_tput};
}

void LatencyAndThroughput() {
  std::printf("\n=== §6.2: latency increase & total throughput loss ===\n");
  std::vector<LatencyRow> rows;

  rows.push_back(MeasureComponent(
      "CPU (sched wake latency)",
      [](Kernel& k, AppOptions o) {
        o.threads = 2;  // OpenCV calib3d is multithreaded; balloons fill both cores
        return SpawnCalib3d(k, "calib3d", o);
      },
      [](Kernel& k, AppOptions o) {
        o.threads = 2;  // PARSEC bodytrack is multithreaded too
        return SpawnBodytrack(k, "bodytrack", o);
      },
      [](Stack& s) {
        const auto& st = s.kernel.scheduler().stats();
        return st.wakeups > 0
                   ? ToMicros(st.total_wake_latency) / static_cast<double>(st.wakeups)
                   : 0.0;
      },
      "us", Seconds(4)));

  rows.push_back(MeasureComponent(
      "GPU (cmd dispatch latency)",
      [](Kernel& k, AppOptions o) { return SpawnGpuBrowser(k, "browser", o); },
      [](Kernel& k, AppOptions o) { return SpawnMagic(k, "magic", o); },
      [](Stack& s) {
        const auto& st = s.kernel.gpu_driver().stats();
        return st.submitted > 0 ? ToMillis(st.total_dispatch_latency) /
                                      static_cast<double>(st.submitted)
                                : 0.0;
      },
      "ms", Seconds(4)));

  rows.push_back(MeasureComponent(
      "DSP (cmd dispatch latency)",
      [](Kernel& k, AppOptions o) { return SpawnDgemm(k, "dgemm", o); },
      [](Kernel& k, AppOptions o) { return SpawnSgemm(k, "sgemm", o); },
      [](Stack& s) {
        const auto& st = s.kernel.dsp_driver().stats();
        return st.submitted > 0 ? ToMillis(st.total_dispatch_latency) /
                                      static_cast<double>(st.submitted)
                                : 0.0;
      },
      "ms", Seconds(4)));

  rows.push_back(MeasureComponent(
      "WiFi (pkt TX latency)",
      [](Kernel& k, AppOptions o) { return SpawnWget(k, "wget", o); },
      [](Kernel& k, AppOptions o) { return SpawnScp(k, "scp", o); },
      [](Stack& s) {
        const auto& st = s.kernel.net().stats();
        return st.tx_frames > 0 ? ToMillis(st.total_tx_latency) /
                                      static_cast<double>(st.tx_frames)
                                : 0.0;
      },
      "ms", Seconds(4),
      [](Stack& s, const AppHandle& a, const AppHandle& b) {
        // WiFi throughput is bytes on the medium, not iterations.
        return static_cast<double>(s.kernel.net().BytesDelivered(a.app) +
                                   s.kernel.net().BytesDelivered(b.app));
      }));

  TextTable table({"component", "latency w/o psbox", "latency w/ psbox",
                   "total tput loss"});
  for (const LatencyRow& r : rows) {
    table.AddRow({r.component, FormatDouble(r.base, 2) + " " + r.unit,
                  FormatDouble(r.with_psbox, 2) + " " + r.unit,
                  Pct(-PercentDelta(r.tput_base, r.tput_psbox) * -1.0)});
  }
  table.Print(std::cout);
  std::printf("Expected shape: CPU adds tens of us (shootdown IPIs); GPU adds\n"
              "~ms; DSP adds tens of ms (long balloons); WiFi can add 100s of\n"
              "ms (balloons span whole transfers+tails). Total loss is small.\n");
}

void AblationFairness() {
  std::printf("\n=== Ablation: charging lost sharing opportunities (CPU) ===\n");
  auto run = [&](bool charge) {
    KernelConfig cfg;
    cfg.sched.charge_lost_sharing = charge;
    Stack s({}, cfg);
    std::vector<AppHandle> handles;
    for (int i = 0; i < 3; ++i) {
      AppOptions opts;
      opts.deadline = Seconds(4);
      opts.use_psbox = i == 2;
      handles.push_back(SpawnCalib3d(s.kernel, "calib" + std::to_string(i), opts));
    }
    s.kernel.RunUntil(Seconds(4) + Millis(20));
    std::vector<double> out;
    for (auto& h : handles) {
      out.push_back(static_cast<double>(h.stats->iterations));
    }
    return out;
  };
  const auto with_charge = run(true);
  const auto without = run(false);
  TextTable table({"instance", "paper design (frames)", "no billing/loans (frames)"});
  for (size_t i = 0; i < 3; ++i) {
    table.AddRow({"calib" + std::to_string(i) + (i == 2 ? "*" : ""),
                  FormatDouble(with_charge[i], 0), FormatDouble(without[i], 0)});
  }
  table.Print(std::cout);
  std::printf("Expected shape: without billing the lost opportunities, the\n"
              "sandboxed app* keeps (or gains) throughput while the others\n"
              "absorb the balloon cost — fairness is broken.\n");
}

void AblationStateVirt() {
  std::printf("\n=== Ablation: power state virtualisation (CPU, Fig 6-style) ===\n");
  auto observed = [&](bool virt, bool co_run) {
    KernelConfig cfg;
    cfg.virtualize_cpu_freq = virt;
    Stack s({}, cfg);
    AppOptions opts;
    opts.iterations = 80;
    opts.use_psbox = true;
    AppHandle app = SpawnDedup(s.kernel, "dedup", opts);
    if (co_run) {
      AppOptions co;
      SpawnBodytrack(s.kernel, "bodytrack", co);
    }
    RunUntilAppDone(s, app.app, Seconds(20));
    return app.stats->psbox_energy;
  };
  TextTable table({"configuration", "dedup alone", "dedup w/ bodytrack", "delta"});
  for (bool virt : {true, false}) {
    const Joules alone = observed(virt, false);
    const Joules corun = observed(virt, true);
    table.AddRow({virt ? "virtualised (paper design)" : "no virtualisation",
                  Mj(alone), Mj(corun), Pct(PercentDelta(alone, corun))});
  }
  table.Print(std::cout);
  std::printf("Expected shape: without per-psbox DVFS contexts the co-runner's\n"
              "lingering frequency leaks into the sandbox's observation.\n");
}

}  // namespace
}  // namespace psbox

int main() {
  std::printf("§6.2 performance impact + DESIGN.md ablations.\n");
  psbox::LatencyAndThroughput();
  psbox::AblationFairness();
  psbox::AblationStateVirt();
  return 0;
}
