// FairQueue: the per-app fair queue every temporal balloon driver shares
// (accelerators, storage and the NIC).
//
// Each app that used the device has a lane: its pending items, the virtual
// service it has received (device time for the command drivers, bytes for
// the NIC), whether it is sandboxed and in which box, the responses the
// device still owes it, and when it was last seen. The queue offers the
// device to the least-served app that wants it, ties going to the lowest
// app id, and applies the §6.3 repayment rule to a sandboxed app: it opens
// a balloon only while it leads the least-served recent competitor by at
// most |lead|. Past that, the least-served unsandboxed app with queued work
// goes instead or, with none, the device is held idle and the driver's pump
// retried after |hold|. This non-work-conserving rule is what confines the
// cost of a balloon to the sandboxed app.
//
// Retirement bounds the lanes by live apps, and a pick scans 1-12 of them
// in the benchmark fleets, so every pick is a plain scan of the id-ordered
// map.

#ifndef SRC_KERNEL_FAIR_QUEUE_H_
#define SRC_KERNEL_FAIR_QUEUE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/sim/simulator.h"

namespace psbox {

template <class Item, class Extra>
class FairQueue {
 public:
  struct Lane {
    std::deque<Item> q;
    double served = 0.0;  // virtual service received: the fairness key
    bool sandboxed = false;
    PsboxId box = kNoPsbox;
    // Responses the device still owes the app (NIC reception). A sandboxed
    // app that is owed any wants the device with an empty queue, because its
    // balloon must cover them.
    int owed = 0;
    TimeNs last_seen = -1;  // last submit or completion
    Extra extra;            // the driver's own per-app state
  };

  // What the idle device does next.
  enum class Verdict {
    kIdle,      // no app wants the device
    kDispatch,  // serve |app| in fair mode
    kBalloon,   // open a balloon for the sandboxed |app|
    kHold,      // the sandboxed head is still repaying; keep the device idle
  };
  struct Pick {
    Verdict verdict = Verdict::kIdle;
    AppId app = kNoApp;
  };

  // |window|: how recently a competitor must have been seen to count
  // (inclusive); |lead|: how far a sandboxed app may lead it; |hold|: the
  // retry delay of a held device; |pump|: the driver's dispatch loop, which
  // the hold and wake-up timers run.
  FairQueue(Simulator* sim, DurationNs window, double lead, DurationNs hold,
            std::function<void()> pump)
      : sim_(sim), window_(window), lead_(lead), hold_(hold),
        pump_(std::move(pump)) {}
  // The timers capture this queue's address.
  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  Lane& operator[](AppId app) { return lanes_[app]; }
  const Lane* Find(AppId app) const {
    auto it = lanes_.find(app);
    return it == lanes_.end() ? nullptr : &it->second;
  }
  void Erase(AppId app) { lanes_.erase(app); }
  std::map<AppId, Lane>& lanes() { return lanes_; }
  const std::map<AppId, Lane>& lanes() const { return lanes_; }

  // The least-served app other than |skip| that wants the device; kNoApp
  // when none does.
  AppId Best(AppId skip = kNoApp) const {
    return Least(
        [&](AppId app, const Lane& l) { return app != skip && Wants(l); });
  }

  // The least service among apps other than |owner| that have work queued
  // or were seen within the window (they will be back within a service
  // round); +infinity when there is none.
  double MinRecentCompetitor(AppId owner) const {
    double least = std::numeric_limits<double>::infinity();
    for (const auto& [app, l] : lanes_) {
      if (app != owner && (!l.q.empty() || SeenWithin(l, sim_->Now()))) {
        least = std::min(least, l.served);
      }
    }
    return least;
  }

  Pick Next() const {
    const AppId best = Best();
    if (best == kNoApp) {
      return {};
    }
    const Lane& l = lanes_.at(best);
    if (!l.sandboxed) {
      return {Verdict::kDispatch, best};
    }
    if (l.served > MinRecentCompetitor(best) + lead_) {
      const AppId fallback = Least([](AppId, const Lane& other) {
        return !other.sandboxed && !other.q.empty();
      });
      return fallback == kNoApp ? Pick{Verdict::kHold, kNoApp}
                                : Pick{Verdict::kDispatch, fallback};
    }
    return {Verdict::kBalloon, best};
  }

  // Whether |app| has nothing queued or owed and was last seen more than the
  // window before |cutoff|, so no later pick can count it as a competitor.
  bool Quiet(AppId app, TimeNs cutoff) const {
    const Lane* l = Find(app);
    return l == nullptr ||
           (l->q.empty() && l->owed == 0 && !SeenWithin(*l, cutoff));
  }

  // Keeps the device idle on purpose: the pump runs again after |hold|
  // unless a retry is already armed.
  void Hold() {
    if (hold_event_ == kInvalidEventId) {
      ArmHoldAt(sim_->Now() + hold_);
    }
  }

  // Runs the pump at |when|, tracked so checkpoints can re-arm it.
  void PumpAt(TimeNs when) {
    // Prune fired entries so the list stays small and checkpoints only see
    // genuinely pending wake-ups.
    std::erase_if(pump_events_,
                  [this](EventId e) { return !sim_->IsPending(e); });
    pump_events_.push_back(sim_->ScheduleAt(when, [this] { pump_(); }));
  }

  // Every lane in id order: the app id, the items, the fairness state, then
  // |tail| writes the driver's fields.
  template <class Ar, class ItemFn, class TailFn>
  void SerializeLanes(Ar& ar, ItemFn&& item, TailFn&& tail) {
    ar.Map(lanes_, 8, [&](AppId& app, Lane& l) {
      ar.I64(app);
      ar.Seq(l.q, 8, item);
      ar.F64(l.served);
      ar.Bool(l.sandboxed);
      ar.I64(l.box);
      tail(l);
    });
  }
  template <class Ar>
  void SerializeHold(Ar& ar) {
    ar.Event(hold_event_, [this](TimeNs when) { ArmHoldAt(when); });
  }
  template <class Ar>
  void SerializeWakeups(Ar& ar) {
    ar.PendingEvents(pump_events_, 10, [&](EventId& e) {
      ar.Event(e, [this](TimeNs when) { PumpAt(when); });
    });
  }

 private:
  bool Wants(const Lane& l) const {
    return !l.q.empty() || (l.sandboxed && l.owed > 0);
  }
  bool SeenWithin(const Lane& l, TimeNs now) const {
    return l.last_seen >= 0 && now - l.last_seen <= window_;
  }
  // The least-served lane that |eligible| admits; the first in id order
  // wins ties.
  template <class Pred>
  AppId Least(Pred&& eligible) const {
    AppId best = kNoApp;
    double least = std::numeric_limits<double>::infinity();
    for (const auto& [app, l] : lanes_) {
      if (eligible(app, l) && l.served < least) {
        least = l.served;
        best = app;
      }
    }
    return best;
  }
  void ArmHoldAt(TimeNs when) {
    hold_event_ = sim_->ScheduleAt(when, [this] {
      hold_event_ = kInvalidEventId;
      pump_();
    });
  }

  Simulator* sim_;
  DurationNs window_;
  double lead_;
  DurationNs hold_;
  std::function<void()> pump_;
  std::map<AppId, Lane> lanes_;
  EventId hold_event_ = kInvalidEventId;
  // Outstanding deferred pump wake-ups (min-grant, idle-release and tail
  // expiry).
  std::vector<EventId> pump_events_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_FAIR_QUEUE_H_
