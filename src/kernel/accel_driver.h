// Accelerator driver: fair command scheduling + psbox temporal balloons.
//
// Baseline behaviour is a fair-queueing command scheduler in the spirit of
// CFS (§5): per-app pending queues, a per-app virtual accelerator runtime,
// and dispatch always favouring the app with the minimum virtual runtime.
// The psbox extension is the five-phase temporal balloon of §4.2
// "Accelerators"; both live in the shared CommandDriver core. What is
// accelerator-specific stays here: the driver virtualises the operating
// frequency per psbox (frequency contexts) and runs an ondemand governor
// that judges each context by its own demand.

#ifndef SRC_KERNEL_ACCEL_DRIVER_H_
#define SRC_KERNEL_ACCEL_DRIVER_H_

#include <unordered_map>

#include "src/base/types.h"
#include "src/hw/accel_device.h"
#include "src/kernel/command_driver.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct AccelDriverConfig : CommandDriverConfig {
  // Simple ondemand frequency governor for the accelerator.
  DurationNs governor_period = 10 * kMillisecond;
  double governor_up = 0.60;
  double governor_down = 0.20;

  // --- fault recovery (DESIGN.md "Fault model & recovery semantics") ------
  // A dispatched command producing no completion within
  //   command_timeout_base + nominal_work * command_timeout_work_factor
  // is declared hung: the engine is reset and aborted commands requeued.
  // The bound is sized so that a command running at the lowest OPP under
  // full slot contention still finishes well inside it.
  DurationNs command_timeout_base = 100 * kMillisecond;
  double command_timeout_work_factor = 20.0;
};

// The frequency context an app's balloons run at: -1 until the app is first
// sandboxed.
struct OppContextRef {
  int id = -1;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U32(id);
  }
};

class AccelDriver
    : public CommandDriver<AccelDevice, AccelCommand, OppContextRef> {
 public:
  AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind, Kernel* kernel,
              AccelDriverConfig config = {});

  // Gives the app a frequency context on first use.
  void SetSandboxed(AppId app, PsboxId box) override;

  // --- app retirement (ResourceDomain) ---
  // Retirable as a command-driver app whose frequency context is idle with
  // no governor time left to consume.
  bool Retirable(AppId app, TimeNs cutoff) const override;
  void RetireApp(AppId app) override;

  // Per-psbox virtualised frequency context management.
  int CreateOppContext();

  const AccelDriverConfig& config() const { return config_; }

  // Snapshot support: queues, in-flight commands with their hang watchdogs,
  // fairness/governor bookkeeping, and all pending driver timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  // Balloon-in restores the sandbox's virtualised operating frequency;
  // balloon-out returns to the global context 0.
  void EnterBalloon(Lane& owner) override {
    SwitchOppContext(owner.extra.vstate.id);
  }
  void LeaveBalloon(Lane& /*owner*/) override { SwitchOppContext(0); }
  void Deliver(Task* task) override;
  DurationNs CommandTimeout(const AccelCommand& cmd) const override;
  // A drain that timed out with anything still executing was stuck behind
  // wedged work.
  bool DrainStuck() const override { return device_->in_flight() > 0; }
  void TrackBusy() override;

  void SwitchOppContext(int ctx);
  void OnGovernorTick();

  AccelDriverConfig config_;
  EventId gov_event_ = kInvalidEventId;

  // Frequency virtualisation contexts; context 0 is global.
  std::unordered_map<int, int> context_opp_;
  int next_context_ = 1;
  int current_context_ = 0;

  // Governor busy tracking, attributed per frequency context so a sandbox's
  // virtual frequency is driven by its own demand only.
  void MarkContextTime();
  TimeNs busy_since_ = -1;
  TimeNs last_ctx_mark_ = 0;
  std::unordered_map<int, DurationNs> ctx_busy_;
  std::unordered_map<int, DurationNs> ctx_wall_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_ACCEL_DRIVER_H_
