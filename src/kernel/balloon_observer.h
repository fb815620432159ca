// Kernel → psbox notification hook.
//
// The kernel extensions (CPU scheduler, accelerator and storage drivers,
// packet scheduler) each keep the one record of who owns their component
// since when (ResourceDomain::owner_box and served_since). When a served
// balloon ends, the domain hands the closed ownership span to this
// interface, after swapping its own virtualised power state back (§4.1).
// The psbox library implements it to keep the closed intervals its virtual
// power meters read from; a span still open is read from the domain.

#ifndef SRC_KERNEL_BALLOON_OBSERVER_H_
#define SRC_KERNEL_BALLOON_OBSERVER_H_

#include "src/base/time.h"
#include "src/base/types.h"

namespace psbox {

class BalloonObserver {
 public:
  virtual ~BalloonObserver() = default;

  // The balloon for |psbox| released |hw|, which it had exclusively owned
  // (all members joined) over [since, until).
  virtual void OnBalloonOut(PsboxId psbox, HwComponent hw, TimeNs since,
                            TimeNs until) = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_BALLOON_OBSERVER_H_
