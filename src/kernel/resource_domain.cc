#include "src/kernel/resource_domain.h"

#include <algorithm>
#include <string>

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

void ResourceDomain::RecordEdge(BalloonEdge::Kind kind) {
  timeline_.push_back({sim_->Now(), kind, owner_, owner_box_});
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
  ar.I64(served_since_);
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
    const std::string domain = std::string(name()) + " domain";
    const bool served = phase_ == BalloonPhase::kServe ||
                        phase_ == BalloonPhase::kDrainOwner;
    // Fail keeps the first error, so a failed load may run these too.
    if (phase_ == BalloonPhase::kIdle
            ? owner_ != kNoApp || owner_box_ != kNoPsbox
            : owner_ == kNoApp) {
      ar.Fail(domain + (owner_ == kNoApp ? " has a balloon with no owner app"
                                         : " names an owner with no balloon"));
    } else if (served != (served_since_ >= 0)) {
      ar.Fail(domain + (served ? " serves a balloon with no serve instant"
                               : " has a serve instant with no served "
                                 "balloon"));
    } else if (served_since_ > sim_->Now()) {
      ar.Fail(domain + "'s serve instant " + std::to_string(served_since_) +
              " lies past the shard clock " + std::to_string(sim_->Now()));
    } else if (served && served_since_ < balloon_start_) {
      ar.Fail(domain + "'s serve instant " + std::to_string(served_since_) +
              " precedes the balloon request at " +
              std::to_string(balloon_start_));
    }
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

void ResourceDomain::CloseBalloon(BalloonEdge::Kind kind) {
  RecordEdge(kind);
  const TimeNs since = served_since_;
  served_since_ = -1;
  if (since >= 0 && observer_ != nullptr) {
    observer_->OnBalloonOut(owner_box_, kind_, since, sim_->Now());
  }
  owner_ = kNoApp;
  owner_box_ = kNoPsbox;
  drain_enter_ = -1;
  phase_ = BalloonPhase::kIdle;
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
  ++dstats_.balloons;
  RecordEdge(BalloonEdge::Kind::kRequest);
}

void ResourceDomain::BalloonServe() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers);
  DisarmDrainWatchdog();
  served_since_ = sim_->Now();
  RecordEdge(BalloonEdge::Kind::kServe);
  phase_ = BalloonPhase::kServe;
}

void ResourceDomain::BalloonRelease() {
  PSBOX_CHECK(phase_ == BalloonPhase::kServe);
  phase_ = BalloonPhase::kDrainOwner;
  RecordEdge(BalloonEdge::Kind::kRelease);
  drain_enter_ = sim_->Now();
  if (drain_timeout_ > 0) {
    ArmDrainWatchdog();
  }
}

DurationNs ResourceDomain::BalloonFinish() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOwner);
  return BalloonEnd();
}

DurationNs ResourceDomain::BalloonEnd() {
  PSBOX_CHECK(phase_ != BalloonPhase::kIdle);
  DisarmDrainWatchdog();
  const DurationNs held = sim_->Now() - balloon_start_;
  dstats_.total_balloon_time += held;
  CloseBalloon(BalloonEdge::Kind::kFinish);
  return held;
}

void ResourceDomain::BalloonCancel() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers);
  DisarmDrainWatchdog();
  CloseBalloon(BalloonEdge::Kind::kCancel);
}

DurationNs ResourceDomain::BalloonAbort() {
  PSBOX_CHECK(phase_ == BalloonPhase::kDrainOthers ||
              phase_ == BalloonPhase::kDrainOwner);
  DisarmDrainWatchdog();
  // A balloon that never reached ownership bills nothing; one aborted in its
  // owner drain bills only the window rendered before that drain began — the
  // stuck drain is the hardware's fault, not the sandbox's.
  const DurationNs served =
      phase_ == BalloonPhase::kDrainOwner ? drain_enter_ - balloon_start_ : 0;
  dstats_.total_balloon_time += served;
  ++dstats_.aborted;
  CloseBalloon(BalloonEdge::Kind::kAbort);
  return served;
}

}  // namespace psbox
