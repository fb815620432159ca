#include "src/hw/display_device.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

DisplayDevice::DisplayDevice(Simulator* sim, PowerRail* rail, DisplayConfig config)
    : sim_(sim), rail_(rail), config_(config) {
  Update();
}

void DisplayDevice::SetSurface(AppId app, double area, double brightness) {
  PSBOX_CHECK_GE(area, 0.0);
  PSBOX_CHECK_LE(area, 1.0);
  PSBOX_CHECK_GE(brightness, 0.0);
  PSBOX_CHECK_LE(brightness, 1.0);
  surfaces_[app] = Surface{area, brightness};
  Update();
}

void DisplayDevice::RemoveSurface(AppId app) {
  surfaces_.erase(app);
  auto it = app_traces_.find(app);
  if (it != app_traces_.end()) {
    it->second.Set(sim_->Now(), 0.0);
  }
  Update();
}

Watts DisplayDevice::AppPower(AppId app) const {
  auto it = surfaces_.find(app);
  if (it == surfaces_.end()) {
    return 0.0;
  }
  return config_.full_panel_power * it->second.area * it->second.brightness;
}

const StepTrace& DisplayDevice::AppTrace(AppId app) const {
  auto it = app_traces_.find(app);
  return it == app_traces_.end() ? no_surface_ : it->second;
}

Watts DisplayDevice::ModelPower() const {
  Watts total = config_.base_power;
  for (const auto& [app, surface] : surfaces_) {
    (void)surface;
    total += AppPower(app);
  }
  return total;
}

size_t DisplayDevice::TrimHistory(TimeNs horizon) {
  size_t dropped = 0;
  for (auto& [app, trace] : app_traces_) {
    dropped += trace.TrimBefore(horizon);
  }
  return dropped;
}

void DisplayDevice::Update() {
  for (const auto& [app, surface] : surfaces_) {
    (void)surface;
    app_traces_[app].Set(sim_->Now(), AppPower(app));
  }
  rail_->SetPower(ModelPower());
}

}  // namespace psbox
