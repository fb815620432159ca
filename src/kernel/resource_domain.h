// ResourceDomain: the common OS-facing layer of the balloon protocol.
//
// The paper implements one concept — per-resource power balloons with
// drain/serve accounting (§4) — once per resource class: spatial balloons in
// the CPU scheduler, five-phase temporal balloons in the accelerator
// drivers, credit-based balloons in the network stack. ResourceDomain hoists
// everything those implementations share out of the policies:
//
//   * the balloon lifecycle state machine, which every policy drives (the
//     CPU's coscheduling period has no owner drain and ends in one step)
//       request (drain others) -> serve -> release (drain owner) -> finish
//                    \-> cancel  \-> end      \-> abort (watchdog)
//   * the one record of who owns the component since when: the balloon's
//     owner app and box, and the instant it was served. The psbox manager
//     reads a still-open ownership span from here, and the domain hands it
//     the closed span when the balloon ends (BalloonObserver);
//   * the per-box accounting window (balloon_start .. finish/abort), the
//     unified DomainStats every domain reports and the edge timeline;
//   * drain-watchdog arming, so a wedged drain phase always unwinds.
//
// Policies (CpuScheduler, AccelDriver, NetStack, StorageDriver) keep only
// what is genuinely resource-specific: queueing, fairness credits, device
// dispatch, power-state virtualisation and recovery actions. The temporal
// ones share their per-app fair queue (fair_queue.h), and the two command
// drivers their whole dispatch and recovery core (command_driver.h). The
// kernel and the psbox manager address every domain uniformly through a
// registry keyed by HwComponent — adding a sandboxed resource means
// implementing this interface, not wiring a fourth special case through the
// stack.

#ifndef SRC_KERNEL_RESOURCE_DOMAIN_H_
#define SRC_KERNEL_RESOURCE_DOMAIN_H_

#include <cstdint>
#include <vector>

#include "src/base/step_trace.h"
#include "src/base/types.h"
#include "src/kernel/balloon_observer.h"
#include "src/kernel/usage_ledger.h"
#include "src/sim/simulator.h"

namespace psbox {

// One lifecycle edge of a balloon. Every domain keeps the full edge
// sequence (request → serve → release → finish, or the cancel/abort
// unwinds) so accounting disputes can be replayed offline from the CSV
// export next to the rail traces (balloon_timeline.h).
struct BalloonEdge {
  enum class Kind : uint8_t { kRequest, kServe, kRelease, kFinish, kCancel, kAbort };
  TimeNs when = 0;
  Kind kind = Kind::kRequest;
  AppId app = kNoApp;
  PsboxId box = kNoPsbox;
};

const char* BalloonEdgeKindName(BalloonEdge::Kind kind);

// The stats every resource domain reports, uniformly (the per-resource
// driver stats keep only their subsystem-specific counters).
struct DomainStats {
  // Balloon requests (whether they reached ownership or were unwound).
  uint64_t balloons = 0;
  // Billed ownership time: full windows for finished balloons, only the
  // service actually rendered for aborted ones.
  DurationNs total_balloon_time = 0;
  // Balloons unwound by a drain watchdog (never more than |balloons|).
  uint64_t aborted = 0;
  // Recovery actions the domain took (device resets, retransmit give-ups);
  // zero unless faults are injected.
  uint64_t recoveries = 0;
};

class ResourceDomain : public EventTarget {
 public:
  // |drain_timeout| == 0 disables the drain watchdog (the domain's drain
  // phases are then unbounded, e.g. the NIC whose frames always complete).
  // The domain registers as its board's event target for its own kinds and
  // a policy's: |event_kinds| counts both, and |handles| marks the policy's
  // kinds it keeps a handle to (Simulator::TargetInfo).
  ResourceDomain(Simulator* sim, HwComponent kind, DurationNs drain_timeout,
                 uint8_t event_kinds = kDomainEventKinds, uint64_t handles = 0);
  virtual ~ResourceDomain();
  ResourceDomain(const ResourceDomain&) = delete;
  ResourceDomain& operator=(const ResourceDomain&) = delete;

  HwComponent kind() const { return kind_; }
  const char* name() const { return HwComponentName(kind_); }

  // --- registry surface (driven by Kernel / PsboxManager) -----------------
  // One-time per-psbox setup at psbox_create (the CPU's task group and
  // operating point); default is nothing.
  virtual void BindBox(AppId app, PsboxId box) {
    (void)app;
    (void)box;
  }
  // Arms / disarms balloons for |app| (psbox enter / leave).
  virtual void SetSandboxed(AppId app, PsboxId box) = 0;
  virtual void ClearSandboxed(AppId app) = 0;

  void set_balloon_observer(BalloonObserver* observer) { observer_ = observer; }
  void set_ledger(UsageLedger* ledger) { ledger_ = ledger; }

  const DomainStats& domain_stats() const { return dstats_; }
  // Current balloon owner (kNoApp when none) and the box it was granted to.
  AppId balloon_owner() const { return owner_; }
  PsboxId owner_box() const { return owner_box_; }
  // The instant the current balloon was served (ownership began), -1 while
  // none is: with owner_box() the one record of who owns the component
  // since when. An open ownership span is [served_since, now).
  TimeNs served_since() const { return served_since_; }

  // Full lifecycle-edge sequence since construction, in time order (the
  // domain-level trace the CSV export streams out). Under telemetry
  // retention only the suffix behind the trim horizon is kept.
  const std::vector<BalloonEdge>& timeline() const { return timeline_; }

  // --- telemetry retention ------------------------------------------------
  // Drops domain-side telemetry (lifecycle edges, policy traces) behind
  // |horizon|. Overrides trim their own traces and call the base.
  virtual void TrimTelemetry(TimeNs horizon);
  // Lifecycle edges dropped by TrimTelemetry over the domain's lifetime.
  uint64_t trimmed_edges() const { return trimmed_edges_; }

  // --- app retirement (driven by Kernel::TrimTelemetry) -------------------
  // Whether the domain holds nothing of the finished |app| that can still
  // reach a decision: no balloon, no queued or in-flight work, no pending
  // event, and its last activity older than the domain's recency window at
  // |cutoff| (so no later scan counts it as a recent competitor). Policies
  // with per-app state override and call the base.
  virtual bool Retirable(AppId app, TimeNs cutoff) const {
    (void)cutoff;
    return balloon_owner() != app;
  }
  // Frees |app|'s per-app state; called once Retirable holds everywhere.
  virtual void RetireApp(AppId app) { (void)app; }
  // BindBox's counterpart for a retiring box: whether its per-box state is
  // idle, and the release of it.
  virtual bool BoxRetirable(PsboxId box) const {
    (void)box;
    return true;
  }
  virtual void UnbindBox(PsboxId box) { (void)box; }

  // --- the virtual meter's trace -----------------------------------------
  // The power trace a sandbox of |app| owns outright, or null. The §7
  // entanglement-free domains keep one (display power is separable per app,
  // GPS operating power is safely revealable) and carry no balloon protocol;
  // on every other domain the meter reads the board's rail inside the
  // balloon spans.
  virtual const StepTrace* AppPowerTrace(AppId app) const {
    (void)app;
    return nullptr;
  }

  // Snapshot support for the common lifecycle layer: phase/owner/accounting
  // window, serve instant, stats and timeline; the load takes the drain
  // watchdog's handle back from the engine and refuses a balloon record that
  // contradicts itself or the shard clock. Policies with extra state
  // serialize it themselves and call this for the shared part.
  template <class Ar>
  void SerializeDomain(Ar& ar);

  // The drain watchdog. Policies number their own kinds from
  // kDomainEventKinds, run them in an override and pass the rest here.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 protected:
  enum : uint8_t { kDrainTimeout, kDomainEventKinds };

  enum class BalloonPhase { kIdle, kDrainOthers, kServe, kDrainOwner };

  void RecordRecovery() { ++dstats_.recoveries; }

  // --- the balloon lifecycle ----------------------------------------------
  BalloonPhase balloon_phase() const { return phase_; }
  TimeNs balloon_start() const { return balloon_start_; }

  // kIdle -> kDrainOthers: counts the balloon, opens the accounting window,
  // arms the drain watchdog.
  void BalloonRequest(AppId app, PsboxId box);
  // kDrainOthers -> kServe: disarms the watchdog and records the serve
  // instant, which opens the ownership span. The policy swaps its
  // virtualised power state *before* calling this, so the meter sees the
  // sandbox's own operating point from the first owned instant.
  void BalloonServe();
  // kServe -> kDrainOwner: arms the drain watchdog.
  void BalloonRelease();
  // kDrainOwner -> kIdle: BalloonEnd for the temporal domains.
  DurationNs BalloonFinish();
  // Any phase -> kIdle in one step (the CPU's coscheduling period has no
  // owner drain): bills the full window, records finish and, if the balloon
  // was served, hands the observer the closed ownership span. Returns the
  // held duration (the policy's fairness charge). Policies swap their power
  // state back before this and the other unwinds.
  DurationNs BalloonEnd();
  // kDrainOthers -> kIdle without billing or an abort count: the sandbox
  // left before ownership ever began.
  void BalloonCancel();
  // Either drain phase -> kIdle on watchdog expiry: bills only the service
  // rendered (zero when ownership never began), counts the abort and closes
  // the span if the balloon was served. Returns the billed span.
  DurationNs BalloonAbort();

  // Policy hook run when the drain watchdog expires while a drain phase is
  // still pending. The policy clears wedged hardware, settles its fairness
  // credits and calls BalloonAbort().
  virtual void OnDrainTimeout() {}

  Simulator* sim_;
  TargetId target_;  // this domain's records in |sim_|
  BalloonObserver* observer_ = nullptr;
  UsageLedger* ledger_ = nullptr;

 private:
  // The drain watchdog: one event, pending while a drain phase is armed, and
  // armed only from disarmed.
  void ArmDrainWatchdog();
  void DisarmDrainWatchdog();
  // Appends a lifecycle edge for the current balloon to the timeline.
  void RecordEdge(BalloonEdge::Kind kind);
  // The common tail of every unwind to kIdle: records |kind|, hands the
  // observer the closed span if the balloon was served and clears the owner.
  void CloseBalloon(BalloonEdge::Kind kind);

  HwComponent kind_;
  BalloonPhase phase_ = BalloonPhase::kIdle;
  AppId owner_ = kNoApp;
  PsboxId owner_box_ = kNoPsbox;
  TimeNs balloon_start_ = 0;
  TimeNs drain_enter_ = -1;
  TimeNs served_since_ = -1;
  // Guards the drain phases; 0 disables the watchdog.
  DurationNs drain_timeout_;
  EventId drain_event_ = kInvalidEventId;
  DomainStats dstats_;
  std::vector<BalloonEdge> timeline_;
  uint64_t trimmed_edges_ = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_RESOURCE_DOMAIN_H_
