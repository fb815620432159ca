// Kernel → psbox notification hook.
//
// The kernel extensions (CPU scheduler, accelerator and storage drivers,
// packet scheduler) report resource-balloon boundaries through this
// interface, each after swapping its own virtualised power state (§4.1). The
// psbox library implements it to accumulate the ownership intervals its
// virtual power meters read from.

#ifndef SRC_KERNEL_BALLOON_OBSERVER_H_
#define SRC_KERNEL_BALLOON_OBSERVER_H_

#include "src/base/time.h"
#include "src/base/types.h"

namespace psbox {

class BalloonObserver {
 public:
  virtual ~BalloonObserver() = default;

  // The balloon for |psbox| now exclusively owns |hw| (all members joined).
  virtual void OnBalloonIn(PsboxId psbox, HwComponent hw, TimeNs when) = 0;

  // The balloon released |hw|.
  virtual void OnBalloonOut(PsboxId psbox, HwComponent hw, TimeNs when) = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_BALLOON_OBSERVER_H_
