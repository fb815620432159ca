// Thin ResourceDomain policies for the §7 entanglement-free hardware.
//
// The display (OLED) and GPS need no balloon protocol: display power is
// per-pixel additive, so each app's contribution is exactly attributable,
// and GPS operating power may be safely revealed to every sandbox (only the
// off/acquiring states are hidden behind idle power, closing the usage side
// channel of §4.1). These domains therefore implement the registry surface
// with pass-through accounting — SetSandboxed/ClearSandboxed arm nothing and
// the balloon counters stay at zero forever — and hand the psbox virtual
// meter the trace a sandbox owns outright (AppPowerTrace). With them
// registered the domain registry covers every HwComponent and the psbox
// manager needs no per-component special cases.

#ifndef SRC_KERNEL_DIRECT_DOMAIN_H_
#define SRC_KERNEL_DIRECT_DOMAIN_H_

#include "src/hw/display_device.h"
#include "src/hw/gps_device.h"
#include "src/kernel/resource_domain.h"

namespace psbox {

// OLED display: per-app surface power is separable, so the sandbox reads
// exactly its own pixels' trace — no DAQ rail, no balloons.
class DisplayDomain : public ResourceDomain {
 public:
  DisplayDomain(Simulator* sim, DisplayDevice* display)
      : ResourceDomain(sim, HwComponent::kDisplay, /*drain_timeout=*/0),
        display_(display) {}

  void SetSandboxed(AppId app, PsboxId box) override {
    (void)app;
    (void)box;  // nothing to arm: attribution needs no exclusivity
  }
  void ClearSandboxed(AppId app) override { (void)app; }

  // A composited surface still draws panel power: only an app whose surface
  // is gone retires, taking its contribution history with it.
  bool Retirable(AppId app, TimeNs cutoff) const override {
    return ResourceDomain::Retirable(app, cutoff) && !display_->HasSurface(app);
  }
  void RetireApp(AppId app) override { display_->ForgetApp(app); }

  const StepTrace* AppPowerTrace(AppId app) const override {
    return &display_->AppTrace(app);
  }

  void TrimTelemetry(TimeNs horizon) override {
    display_->TrimHistory(horizon);
    ResourceDomain::TrimTelemetry(horizon);
  }

 private:
  DisplayDevice* display_;
};

// GPS receiver: while the device operates its power may be revealed to every
// psbox; off/acquiring periods read as off power so no sandbox can infer
// other apps' (past) GPS usage. The reading is app-independent by design.
class GpsDomain : public ResourceDomain {
 public:
  GpsDomain(Simulator* sim, GpsDevice* gps)
      : ResourceDomain(sim, HwComponent::kGps, /*drain_timeout=*/0), gps_(gps) {}

  void SetSandboxed(AppId app, PsboxId box) override {
    (void)app;
    (void)box;
  }
  void ClearSandboxed(AppId app) override { (void)app; }

  // A user keeps the receiver powered.
  bool Retirable(AppId app, TimeNs cutoff) const override {
    return ResourceDomain::Retirable(app, cutoff) && !gps_->HasUser(app);
  }

  const StepTrace* AppPowerTrace(AppId app) const override {
    (void)app;
    return &gps_->revealed_trace();
  }

  void TrimTelemetry(TimeNs horizon) override {
    gps_->TrimHistory(horizon);
    ResourceDomain::TrimTelemetry(horizon);
  }

 private:
  GpsDevice* gps_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_DIRECT_DOMAIN_H_
