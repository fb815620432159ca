// A measurable power rail.
//
// Our prototype boards (DESIGN.md) expose one rail per major component, like
// the paper's AM57EVM instrumented through four distinct rails. Components
// push their instantaneous draw here whenever their state changes; the rail
// keeps the exact piecewise-constant history that the in-situ power meter
// (hw::PowerMeter) and the accounting baselines read back.

#ifndef SRC_HW_POWER_RAIL_H_
#define SRC_HW_POWER_RAIL_H_

#include <string>

#include "src/base/step_trace.h"
#include "src/base/time.h"

namespace psbox {

class Simulator;

class PowerRail {
 public:
  PowerRail(Simulator* sim, std::string name, Watts idle_power);

  // Sets the rail draw as of the current simulated time.
  void SetPower(Watts watts);

  // Instantaneous draw at |t| (idle power before the first update).
  Watts PowerAt(TimeNs t) const;

  // Exact energy over [t0, t1).
  Joules EnergyOver(TimeNs t0, TimeNs t1) const;

  Watts idle_power() const { return idle_power_; }
  const std::string& name() const { return name_; }
  const StepTrace& trace() const { return trace_; }

  // Drops trace history behind |horizon| (telemetry retention). Lookups and
  // windows at or after the horizon — and whole-history energy queries, whose
  // base offset the StepTrace retains — stay exact. Returns steps dropped.
  size_t TrimBefore(TimeNs horizon) { return trace_.TrimBefore(horizon); }

  // Snapshot support: the rail's only state is its power history (name and
  // idle power are configuration).
  template <class Ar>
  void Serialize(Ar& ar) {
    trace_.Serialize(ar);
  }

 private:
  Simulator* sim_;
  std::string name_;
  Watts idle_power_;
  StepTrace trace_;
};

}  // namespace psbox

#endif  // SRC_HW_POWER_RAIL_H_
