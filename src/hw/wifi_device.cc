#include "src/hw/wifi_device.h"

#include <cmath>

#include "src/base/check.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

WifiDevice::WifiDevice(Simulator* sim, PowerRail* rail, WifiConfig config)
    : sim_(sim), rail_(rail), config_(std::move(config)) {
  UpdateRail();
}

DurationNs WifiDevice::FrameAirtime(size_t bytes) const {
  const double rate_mbps = power_state_.tx_power_level > 0 ? config_.rate_mbps_high
                                                           : config_.rate_mbps_low;
  const double bits = static_cast<double>(bytes) * 8.0;
  const auto payload_ns = static_cast<DurationNs>(bits / rate_mbps * 1000.0);
  return config_.per_frame_overhead + payload_ns;
}

void WifiDevice::SubmitFrame(const WifiFrame& frame) {
  queue_.push_back(frame);
  if (!busy_) {
    StartNextFrame();
  }
}

void WifiDevice::StartNextFrame() {
  PSBOX_CHECK(!busy_);
  if (queue_.empty()) {
    return;
  }
  if (tail_event_ != kInvalidEventId) {
    sim_->Cancel(tail_event_);
    tail_event_ = kInvalidEventId;
  }
  in_tail_ = false;
  busy_ = true;
  current_frame_ = queue_.front();
  queue_.pop_front();
  current_start_ = sim_->Now();
  frame_event_ = sim_->ScheduleAfter(FrameAirtime(current_frame_.bytes),
                                     [this] { OnFrameComplete(); });
  UpdateRail();
}

void WifiDevice::OnFrameComplete() {
  frame_event_ = kInvalidEventId;
  busy_ = false;
  // Frame loss applies to TX only: a corrupted or link-down TX frame burns
  // its airtime but is never ACKed. Reception stays reliable — the channel
  // model owns RX delivery and the MAC cannot defer it (§5).
  bool delivered = true;
  if (faults_ != nullptr && !current_frame_.is_rx &&
      faults_->ShouldDropTxFrame(sim_->Now())) {
    delivered = false;
    ++frames_lost_;
  }
  const WifiFrameDone done{current_frame_, current_start_, sim_->Now(), delivered};
  if (!queue_.empty()) {
    StartNextFrame();
  } else {
    // Lingering power state: stay awake in the tail until the PS timer fires.
    in_tail_ = true;
    tail_event_ = sim_->ScheduleAfter(power_state_.ps_timeout, [this] { OnTailExpire(); });
    UpdateRail();
  }
  if (on_frame_done_) {
    on_frame_done_(done);
  }
}

void WifiDevice::OnTailExpire() {
  tail_event_ = kInvalidEventId;
  in_tail_ = false;
  UpdateRail();
}

void WifiDevice::SetPowerState(const WifiPowerState& state) {
  power_state_ = state;
  if (in_tail_) {
    // Re-arm the tail timer under the new timeout.
    if (tail_event_ != kInvalidEventId) {
      sim_->Cancel(tail_event_);
    }
    tail_event_ = sim_->ScheduleAfter(power_state_.ps_timeout, [this] { OnTailExpire(); });
  }
  UpdateRail();
}

template <class Ar>
void WifiDevice::Serialize(Ar& ar) {
  // The device writes a frame's socket as u32; NetStack's packets carry it
  // as i64.
  auto frame = [&ar](WifiFrame& f) {
    ar.U64(f.id);
    ar.I64(f.app);
    ar.U32(f.socket);
    ar.U64(f.bytes);
    ar.Bool(f.is_rx);
  };
  power_state_.Serialize(ar);
  ar.U64(frames_lost_);
  ar.Seq(queue_, 8, frame);
  ar.Bool(busy_);
  ar.Bool(in_tail_);
  frame(current_frame_);
  ar.I64(current_start_);
  ar.Event(frame_event_, [this](TimeNs when) {
    frame_event_ = sim_->ScheduleAt(when, [this] { OnFrameComplete(); });
  });
  ar.Event(tail_event_, [this](TimeNs when) {
    tail_event_ = sim_->ScheduleAt(when, [this] { OnTailExpire(); });
  });
}

template void WifiDevice::Serialize(SnapshotWriter&);
template void WifiDevice::Serialize(SnapshotReader&);

void WifiDevice::UpdateRail() {
  Watts p = config_.idle_power;
  if (busy_) {
    if (current_frame_.is_rx) {
      p = config_.rx_power;
    } else {
      p = power_state_.tx_power_level > 0 ? config_.tx_power_high : config_.tx_power_low;
    }
  } else if (in_tail_) {
    p = config_.tail_power;
  }
  rail_->SetPower(p);
}

}  // namespace psbox
