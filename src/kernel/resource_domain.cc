#include "src/kernel/resource_domain.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

const char* BalloonEdgeKindName(BalloonEdge::Kind kind) {
  switch (kind) {
    case BalloonEdge::Kind::kRequest:
      return "request";
    case BalloonEdge::Kind::kServe:
      return "serve";
    case BalloonEdge::Kind::kRelease:
      return "release";
    case BalloonEdge::Kind::kFinish:
      return "finish";
    case BalloonEdge::Kind::kCancel:
      return "cancel";
    case BalloonEdge::Kind::kAbort:
      return "abort";
  }
  return "?";
}

ResourceDomain::ResourceDomain(Simulator* sim, HwComponent kind,
                               DurationNs drain_timeout, uint8_t event_kinds,
                               uint64_t handles)
    : sim_(sim),
      target_(sim->AddTarget(
          this, {std::string(HwComponentName(kind)) + " domain", event_kinds,
                 handles | 1u << kDrainTimeout})),
      kind_(kind),
      drain_timeout_(drain_timeout) {}

ResourceDomain::~ResourceDomain() = default;

Watts ResourceDomain::DirectPowerAt(AppId app, TimeNs t) const {
  (void)app;
  (void)t;
  CheckFail(__FILE__, __LINE__,
            std::string(name()) + " is balloon-metered, not direct-metered");
}

Joules ResourceDomain::DirectEnergyOver(AppId app, TimeNs t0, TimeNs t1) const {
  (void)app;
  (void)t0;
  (void)t1;
  CheckFail(__FILE__, __LINE__,
            std::string(name()) + " is balloon-metered, not direct-metered");
}

void ResourceDomain::RecordEdge(BalloonEdge::Kind kind, AppId app, PsboxId box) {
  timeline_.push_back({sim_->Now(), kind, app, box});
}

void ResourceDomain::TrimTelemetry(TimeNs horizon) {
  size_t drop = 0;
  while (drop < timeline_.size() && timeline_[drop].when < horizon) {
    ++drop;
  }
  if (drop > 0) {
    timeline_.erase(timeline_.begin(), timeline_.begin() + static_cast<ptrdiff_t>(drop));
    trimmed_edges_ += drop;
  }
}

template <class Ar>
void ResourceDomain::SerializeDomain(Ar& ar) {
  if (!ar.Section("domain")) {
    return;
  }
  ar.Enum(phase_, BalloonPhase::kDrainOwner, "balloon phase");
  ar.I64(owner_);
  ar.I64(owner_box_);
  ar.I64(balloon_start_);
  ar.I64(drain_enter_);
  ar.Bool(notified_);
  ar.U64(dstats_.balloons);
  ar.I64(dstats_.total_balloon_time);
  ar.U64(dstats_.aborted);
  ar.U64(dstats_.recoveries);
  ar.Seq(timeline_, 4, [&](BalloonEdge& e) {
    ar.I64(e.when);
    ar.Enum(e.kind, BalloonEdge::Kind::kAbort, "balloon edge kind");
    ar.I64(e.app);
    ar.I64(e.box);
  });
  ar.U64(trimmed_edges_);
  if constexpr (Ar::kLoading) {
    drain_event_ = sim_->FindPending(target_, kDrainTimeout, 0);
  }
}

template void ResourceDomain::SerializeDomain(SnapshotWriter&);
template void ResourceDomain::SerializeDomain(SnapshotReader&);

void ResourceDomain::OnEvent(uint8_t kind, uint64_t /*a*/, uint64_t /*b*/) {
  PSBOX_CHECK_EQ(kind, kDrainTimeout);
  drain_event_ = kInvalidEventId;
  if (phase_ == BalloonPhase::kDrainOthers ||
      phase_ == BalloonPhase::kDrainOwner) {
    OnDrainTimeout();
  }
}

void ResourceDomain::ArmDrainWatchdog() {
  // Every arm follows a disarm or an expiry (BalloonRequest from kIdle,
  // BalloonRelease from kServe).
  PSBOX_CHECK(drain_event_ == kInvalidEventId);
  drain_event_ = sim_->ScheduleAfter(drain_timeout_, target_, kDrainTimeout);
}

void ResourceDomain::DisarmDrainWatchdog() {
  sim_->Cancel(drain_event_);
  drain_event_ = kInvalidEventId;
}

void ResourceDomain::NotifyBalloonIn(PsboxId box, TimeNs when) {
  if (observer_ != nullptr) {
    observer_->OnBalloonIn(box, kind_, when);
  }
}

void ResourceDomain::NotifyBalloonOut(PsboxId box, TimeNs when) {
  if (observer_ != nullptr) {
    observer_->OnBalloonOut(box, kind_, when);
  }
}

void ResourceDomain::BalloonRequest(AppId app, PsboxId box) {
  PSBOX_CHECK(phase_ == BalloonPhase::kIdle);
  PSBOX_CHECK(app != kNoApp);
  owner_ = app;
  owner_box_ = box;
  phase_ = BalloonPhase::kDrainOthers;
  balloon_start_ = sim_->Now();
  drain_enter_ = sim_->Now();
  if (drain_timeout_ > 0) {
    ArmDrainWatchdog();
  }
  RecordBalloonStart();
  RecordEdge(BalloonEdge::Kind::kRequest, owner_, owner_box_);
}

void ResourceDomain::BalloonServe() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers);
  DisarmDrainWatchdog();
  notified_ = true;
  NotifyBalloonIn(owner_box_, sim_->Now());
  RecordEdge(BalloonEdge::Kind::kServe, owner_, owner_box_);
  phase_ = BalloonPhase::kServe;
}

void ResourceDomain::BalloonRelease() {
  PSBOX_CHECK(phase_ == BalloonPhase::kServe);
  phase_ = BalloonPhase::kDrainOwner;
  RecordEdge(BalloonEdge::Kind::kRelease, owner_, owner_box_);
  drain_enter_ = sim_->Now();
  if (drain_timeout_ > 0) {
    ArmDrainWatchdog();
  }
}

DurationNs ResourceDomain::BalloonFinish() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOwner);
  DisarmDrainWatchdog();
  const DurationNs held = sim_->Now() - balloon_start_;
  RecordBalloonTime(held);
  RecordEdge(BalloonEdge::Kind::kFinish, owner_, owner_box_);
  if (notified_) {
    NotifyBalloonOut(owner_box_, sim_->Now());
  }
  notified_ = false;
  owner_ = kNoApp;
  owner_box_ = kNoPsbox;
  drain_enter_ = -1;
  phase_ = BalloonPhase::kIdle;
  return held;
}

void ResourceDomain::BalloonCancel() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers);
  DisarmDrainWatchdog();
  RecordEdge(BalloonEdge::Kind::kCancel, owner_, owner_box_);
  notified_ = false;
  owner_ = kNoApp;
  owner_box_ = kNoPsbox;
  drain_enter_ = -1;
  phase_ = BalloonPhase::kIdle;
}

DurationNs ResourceDomain::BalloonAbort() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers ||
              phase_ == BalloonPhase::kDrainOwner);
  DisarmDrainWatchdog();
  // A balloon that never reached ownership bills nothing; one aborted in its
  // owner drain bills only the service actually rendered — the stuck drain
  // is the hardware's fault, not the sandbox's.
  const DurationNs served =
      phase_ == BalloonPhase::kDrainOwner ? BalloonServed() : 0;
  RecordBalloonTime(served);
  RecordAbort();
  RecordEdge(BalloonEdge::Kind::kAbort, owner_, owner_box_);
  if (notified_) {
    NotifyBalloonOut(owner_box_, sim_->Now());
  }
  notified_ = false;
  owner_ = kNoApp;
  owner_box_ = kNoPsbox;
  drain_enter_ = -1;
  phase_ = BalloonPhase::kIdle;
  return served;
}

}  // namespace psbox
