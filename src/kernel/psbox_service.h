// App-facing psbox service interface (the syscall surface of Listing 1).
//
// The kernel exposes this hook so that app behaviours can reach the psbox
// user API without the kernel depending on the psbox library; the psbox
// PsboxManager implements it. All calls are made from task context.

#ifndef SRC_KERNEL_PSBOX_SERVICE_H_
#define SRC_KERNEL_PSBOX_SERVICE_H_

#include <vector>

#include "src/base/time.h"
#include "src/base/types.h"
#include "src/hw/power_meter.h"

namespace psbox {

class PsboxService {
 public:
  virtual ~PsboxService() = default;

  // psbox_create(): creates a sandbox for |app| bound to |hw|; returns a
  // box handle (>= 0).
  virtual int CreateBox(AppId app, const std::vector<HwComponent>& hw) = 0;

  // psbox_create() with a tenant: creates a sandbox nested inside |parent|
  // (an existing box whose hardware binding is a superset of |hw|). |budget|
  // is the energy slice the child claims from the parent (clamped to what
  // the parent has left when the parent is budgeted; 0 requests none).
  // Balloon ownership and accounting compose through the hierarchy: energy
  // served to the child bills the child's window and every ancestor's.
  virtual int CreateNestedBox(AppId app, const std::vector<HwComponent>& hw,
                              int parent, Joules budget) = 0;

  // psbox_enter()/psbox_leave(). Mode changes take effect at the kernel's
  // next scheduling decision.
  virtual void EnterBox(int box) = 0;
  virtual void LeaveBox(int box) = 0;

  // psbox_read(): accumulated energy observed by the box's virtual power
  // meter since creation (or since the last ResetEnergy).
  virtual Joules ReadEnergy(int box) = 0;
  virtual void ResetEnergy(int box) = 0;

  // psbox_sample(): drains up to |max_samples| timestamped power samples
  // from the box's virtual power meter into |buf|. Only legal in the box.
  virtual size_t Sample(int box, std::vector<PowerSample>* buf, size_t max_samples) = 0;

  virtual bool InBox(int box) const = 0;

  // --- telemetry retention (driven by Kernel::TrimTelemetry) --------------
  // Folds every piece of sandbox ownership history that ends by |horizon|
  // into exact per-box base accumulators, anchoring where the rest of the
  // span straddling it begins, and drops undrained sample backlog behind it
  // (ring-buffer semantics). Any horizon is exact, so the sandboxes never
  // hold the trim back. Runs before the kernel trims the underlying rail and
  // domain traces. Default: nothing to fold.
  virtual void TrimTelemetry(TimeNs horizon) { (void)horizon; }

  // --- app retirement (driven by Kernel::TrimTelemetry) -------------------
  // Whether every sandbox of the finished |app| is left, idle (no pending
  // mode switch, no live child) and settled into its energy bases, and every
  // bound domain holds its per-box state idle. Default: no sandboxes.
  virtual bool AppRetirable(AppId app) {
    (void)app;
    return true;
  }
  // Retires every sandbox of |app|: folds its final balloon-metered energy
  // into its parent's closed-children base and unbinds it from its domains.
  virtual void RetireApp(AppId app) { (void)app; }
};

}  // namespace psbox

#endif  // SRC_KERNEL_PSBOX_SERVICE_H_
