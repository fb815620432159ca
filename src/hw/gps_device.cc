#include "src/hw/gps_device.h"

#include "src/base/check.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

GpsDevice::GpsDevice(Simulator* sim, PowerRail* rail, GpsConfig config)
    : sim_(sim), rail_(rail), config_(config) {
  operating_trace_.Set(0, 0.0);
  Update();
}

void GpsDevice::Request(AppId app) {
  const bool was_empty = users_.empty();
  users_.insert(app);
  if (was_empty && state_ == GpsState::kOff) {
    state_ = GpsState::kAcquiring;
    acquire_event_ = sim_->ScheduleAfter(config_.cold_start, [this] {
      acquire_event_ = kInvalidEventId;
      OnAcquired();
    });
    Update();
  }
}

void GpsDevice::OnAcquired() {
  if (users_.empty()) {
    return;  // released during acquisition; Release already powered off
  }
  state_ = GpsState::kOn;
  operating_trace_.Set(sim_->Now(), 1.0);
  Update();
}

void GpsDevice::Release(AppId app) {
  users_.erase(app);
  if (!users_.empty()) {
    return;  // other apps keep the device on: their power is unaffected (§7)
  }
  if (acquire_event_ != kInvalidEventId) {
    sim_->Cancel(acquire_event_);
    acquire_event_ = kInvalidEventId;
  }
  state_ = GpsState::kOff;
  operating_trace_.Set(sim_->Now(), 0.0);
  Update();
}

template <class Ar>
void GpsDevice::Serialize(Ar& ar) {
  ar.Enum(state_, GpsState::kOn, "gps state");
  ar.Seq(users_, sizeof(AppId), [&](auto& app) { ar.I64(app); });
  ar.Event(acquire_event_, [this](TimeNs when) {
    acquire_event_ = sim_->ScheduleAt(when, [this] {
      acquire_event_ = kInvalidEventId;
      OnAcquired();
    });
  });
  operating_trace_.Serialize(ar);
}

template void GpsDevice::Serialize(SnapshotWriter&);
template void GpsDevice::Serialize(SnapshotReader&);

Watts GpsDevice::ModelPower() const {
  switch (state_) {
    case GpsState::kOff:
      return config_.off_power;
    case GpsState::kAcquiring:
      return config_.acquire_power;
    case GpsState::kOn:
      return config_.on_power;
  }
  PSBOX_CHECK(false);
}

void GpsDevice::Update() { rail_->SetPower(ModelPower()); }

}  // namespace psbox
