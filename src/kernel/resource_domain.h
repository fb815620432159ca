// ResourceDomain: the common OS-facing layer of the balloon protocol.
//
// The paper implements one concept — per-resource power balloons with
// drain/serve accounting (§4) — once per resource class: spatial balloons in
// the CPU scheduler, five-phase temporal balloons in the accelerator
// drivers, credit-based balloons in the network stack. ResourceDomain hoists
// everything those implementations share out of the policies:
//
//   * the balloon lifecycle state machine
//       request (drain others) -> serve -> release (drain owner) -> finish
//                    \-> cancel                    \-> abort (watchdog)
//   * the per-box accounting window (balloon_start .. finish/abort) and the
//     unified DomainStats every domain reports;
//   * BalloonObserver dispatch at the ownership edges (balloon-in/out), which
//     is what feeds the psbox virtual power meters;
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
//
// Two shapes of policy:
//   * temporal domains (accelerators, NIC, storage) drive the five-phase
//     machine directly via BalloonRequest/Serve/Release/Finish/Cancel/Abort;
//   * the spatial CPU domain has its own coscheduling lifecycle and uses the
//     primitives (Notify*/Record*) so its accounting and observer dispatch
//     still flow through the common layer.

#ifndef SRC_KERNEL_RESOURCE_DOMAIN_H_
#define SRC_KERNEL_RESOURCE_DOMAIN_H_

#include <cstdint>
#include <vector>

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
  // Current balloon owner (kNoApp when none).
  virtual AppId balloon_owner() const { return owner_; }

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

  // --- §7 entanglement-free (direct-metered) domains ----------------------
  // Display power is separable per app and GPS operating power is safely
  // revealable, so their domains carry no balloon protocol: the psbox
  // virtual meter reads app-attributable power directly instead of gating
  // on ownership windows. Domains with balloons return false and must not
  // be asked for direct readings.
  virtual bool direct_metered() const { return false; }
  // App-attributable power at instant |t|; aborts unless direct_metered().
  virtual Watts DirectPowerAt(AppId app, TimeNs t) const;
  // App-attributable energy over [t0, t1); aborts unless direct_metered().
  virtual Joules DirectEnergyOver(AppId app, TimeNs t0, TimeNs t1) const;

  // Snapshot support for the common lifecycle layer: phase/owner/accounting
  // window, stats and timeline; the load takes the drain watchdog's handle
  // back from the engine. Policies with extra state serialize it themselves
  // and call this for the shared part.
  template <class Ar>
  void SerializeDomain(Ar& ar);

  // The drain watchdog. Policies number their own kinds from
  // kDomainEventKinds, run them in an override and pass the rest here.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 protected:
  enum : uint8_t { kDrainTimeout, kDomainEventKinds };

  enum class BalloonPhase { kIdle, kDrainOthers, kServe, kDrainOwner };

  // --- primitives (used by every domain, incl. the spatial CPU one) -------
  void NotifyBalloonIn(PsboxId box, TimeNs when);
  void NotifyBalloonOut(PsboxId box, TimeNs when);
  // Appends a lifecycle edge to the timeline. The five-phase methods record
  // their own edges; the spatial CPU domain calls this at its coscheduling
  // start/owned/end points.
  void RecordEdge(BalloonEdge::Kind kind, AppId app, PsboxId box);
  void RecordBalloonStart() { ++dstats_.balloons; }
  void RecordBalloonTime(DurationNs held) { dstats_.total_balloon_time += held; }
  void RecordAbort() { ++dstats_.aborted; }
  void RecordRecovery() { ++dstats_.recoveries; }

  // --- the temporal five-phase lifecycle ----------------------------------
  BalloonPhase balloon_phase() const { return phase_; }
  TimeNs balloon_start() const { return balloon_start_; }
  PsboxId owner_box() const { return owner_box_; }
  // Ownership window rendered before the current drain-owner phase began
  // (what an aborted balloon is billed for).
  DurationNs BalloonServed() const { return drain_enter_ - balloon_start_; }

  // kIdle -> kDrainOthers: counts the balloon, opens the accounting window,
  // arms the drain watchdog.
  void BalloonRequest(AppId app, PsboxId box);
  // kDrainOthers -> kServe: disarms the watchdog and signals balloon-in.
  // The policy swaps its virtualised power state *before* calling this, so
  // the observer sees the sandbox's own operating point from the first
  // owned instant.
  void BalloonServe();
  // kServe -> kDrainOwner: arms the drain watchdog.
  void BalloonRelease();
  // kDrainOwner -> kIdle: bills the full window, signals balloon-out.
  // Returns the held duration (the policy's fairness charge).
  DurationNs BalloonFinish();
  // kDrainOthers -> kIdle without billing or an abort count: the sandbox
  // left before ownership ever began.
  void BalloonCancel();
  // Either drain phase -> kIdle on watchdog expiry: bills only the service
  // rendered (zero when ownership never began), counts the abort and signals
  // balloon-out if ownership had been announced. Returns the billed span.
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

  HwComponent kind_;
  BalloonPhase phase_ = BalloonPhase::kIdle;
  AppId owner_ = kNoApp;
  PsboxId owner_box_ = kNoPsbox;
  TimeNs balloon_start_ = 0;
  TimeNs drain_enter_ = -1;
  bool notified_ = false;
  // Guards the drain phases; 0 disables the watchdog.
  DurationNs drain_timeout_;
  EventId drain_event_ = kInvalidEventId;
  DomainStats dstats_;
  std::vector<BalloonEdge> timeline_;
  uint64_t trimmed_edges_ = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_RESOURCE_DOMAIN_H_
