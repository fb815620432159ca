// OLED display model (§7 "Support psbox on extra hardware").
//
// Modern OLED panels are free of power entanglement: every pixel contributes
// to total power independently, with little lingering state. Apps composite
// surfaces onto the panel; each surface's power contribution is a separable
// function of its area and brightness, so the OS can divide display power
// among apps exactly — a psbox bound to the display needs no resource
// balloons at all. The device keeps a per-app contribution trace that the
// psbox virtual power meter reads directly.

#ifndef SRC_HW_DISPLAY_DEVICE_H_
#define SRC_HW_DISPLAY_DEVICE_H_

#include <map>

#include "src/base/step_trace.h"
#include "src/base/types.h"
#include "src/hw/power_rail.h"
#include "src/sim/simulator.h"

namespace psbox {

struct DisplayConfig {
  // Panel controller draw with the panel on but all pixels black.
  Watts base_power = 0.08;
  // Draw of the full panel lit at brightness 1.0.
  Watts full_panel_power = 1.10;
};

class DisplayDevice {
 public:
  DisplayDevice(Simulator* sim, PowerRail* rail, DisplayConfig config);

  // Composites (or updates) |app|'s surface: |area| in [0, 1] of the panel,
  // |brightness| in [0, 1] mean emitted luminance.
  void SetSurface(AppId app, double area, double brightness);
  void RemoveSurface(AppId app);
  bool HasSurface(AppId app) const { return surfaces_.count(app) > 0; }
  // Drops the contribution history of a retired app (its surface is gone).
  void ForgetApp(AppId app) { app_traces_.erase(app); }

  // Instantaneous contribution of |app|'s surface.
  Watts AppPower(AppId app) const;
  // History of |app|'s surface contribution (empty for an app that never
  // composited one): its own pixels' power, directly attributable per §7.
  const StepTrace& AppTrace(AppId app) const;

  Watts ModelPower() const;
  const DisplayConfig& config() const { return config_; }

  // Drops per-app contribution history behind |horizon| (telemetry
  // retention); AppTrace reads stay exact for t >= horizon. Returns
  // steps dropped across all surfaces.
  size_t TrimHistory(TimeNs horizon);

  // Snapshot support: composited surfaces and per-app contribution traces.
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Map(surfaces_, 3 * sizeof(double), [&](AppId& app, Surface& surface) {
      ar.I64(app);
      ar.F64(surface.area);
      ar.F64(surface.brightness);
    });
    ar.Map(app_traces_, sizeof(AppId), [&](AppId& app, StepTrace& trace) {
      ar.I64(app);
      trace.Serialize(ar);
    });
  }

 private:
  struct Surface {
    double area = 0.0;
    double brightness = 0.0;
  };

  void Update();

  Simulator* sim_;
  PowerRail* rail_;
  DisplayConfig config_;
  std::map<AppId, Surface> surfaces_;
  // Per-app contribution traces (the per-pixel separability of OLED).
  std::map<AppId, StepTrace> app_traces_;
  const StepTrace no_surface_;
};

}  // namespace psbox

#endif  // SRC_HW_DISPLAY_DEVICE_H_
