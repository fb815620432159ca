#include "src/hw/storage_device.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {
// MB/s -> bytes per nanosecond.
double BytesPerNs(double mbps) { return mbps * 1e6 / 1e9; }
}  // namespace

StorageDevice::StorageDevice(Simulator* sim, PowerRail* rail, StorageConfig config)
    : sim_(sim),
      target_(sim->AddTarget(this, {"storage device", kEventKinds,
                                    1 << kTransferDone | 1 << kFlushStart |
                                        1 << kFlushEnd})),
      rail_(rail),
      config_(config) {}

void StorageDevice::OnEvent(uint8_t kind, uint64_t /*a*/, uint64_t /*b*/) {
  switch (kind) {
    case kTransferDone:
      OnTransferComplete();
      break;
    case kFlushStart:
      BeginFlush();
      break;
    default:
      OnFlushComplete();
      break;
  }
}

double StorageDevice::BusRate(bool is_write) const {
  const bool high = power_state_.perf_level > 0;
  if (is_write) {
    return BytesPerNs(high ? config_.write_buffer_mbps_high
                           : config_.write_buffer_mbps_low);
  }
  return BytesPerNs(high ? config_.read_mbps_high : config_.read_mbps_low);
}

Watts StorageDevice::ChannelPower() const {
  const bool high = power_state_.perf_level > 0;
  if (current_.is_write) {
    return high ? config_.write_power_high : config_.write_power_low;
  }
  return high ? config_.read_power_high : config_.read_power_low;
}

Watts StorageDevice::ModelPower() const {
  Watts p = config_.idle_power;
  if (channel_busy_) {
    p += ChannelPower();
  }
  if (flush_active_) {
    p += config_.flush_power;
  }
  return p;
}

void StorageDevice::UpdateRail() { rail_->SetPower(ModelPower()); }

void StorageDevice::Dispatch(const StorageCommand& cmd) {
  PSBOX_CHECK(CanDispatch());
  PSBOX_CHECK_GT(cmd.bytes, 0u);
  channel_busy_ = true;
  current_ = cmd;
  current_dispatch_ = sim_->Now();
  remaining_bytes_ = static_cast<double>(cmd.bytes);
  // The fixed command overhead is a setup prefix; bytes only start moving
  // once it has elapsed.
  last_channel_update_ = sim_->Now() + config_.per_command_overhead;
  hung_ = faults_ != nullptr && faults_->ShouldHangStorageCommand();
  if (hung_) {
    // The command wedges the channel: the bus stays busy (and the rail hot)
    // but no completion will ever fire. Only Reset() clears it.
    ++hung_commands_;
  } else {
    const DurationNs duration =
        config_.per_command_overhead +
        static_cast<DurationNs>(remaining_bytes_ / BusRate(cmd.is_write));
    transfer_event_ = sim_->ScheduleAfter(duration, target_, kTransferDone);
  }
  UpdateRail();
}

void StorageDevice::OnTransferComplete() {
  transfer_event_ = kInvalidEventId;
  const StorageCommand cmd = current_;
  channel_busy_ = false;
  remaining_bytes_ = 0.0;
  if (cmd.is_write) {
    // The data now sits in the write-back buffer; the flush (and its energy)
    // comes later — the completion interrupt fires regardless.
    if (flush_active_) {
      AdvanceFlush();
      buffer_bytes_ += static_cast<double>(cmd.bytes);
      if (flush_end_event_ != kInvalidEventId) {
        sim_->Cancel(flush_end_event_);
      }
      flush_end_event_ = sim_->ScheduleAfter(
          static_cast<DurationNs>(buffer_bytes_ / BytesPerNs(config_.flush_mbps)),
          target_, kFlushEnd);
    } else {
      buffer_bytes_ += static_cast<double>(cmd.bytes);
      ArmFlushStart();
    }
  }
  UpdateRail();
  StorageCompletion done;
  done.cmd = cmd;
  done.dispatch_time = current_dispatch_;
  done.end_time = sim_->Now();
  if (on_complete_) {
    on_complete_(done);
  }
  NotifyIfQuiescent();
}

void StorageDevice::ArmFlushStart() {
  if (flush_start_event_ != kInvalidEventId) {
    sim_->Cancel(flush_start_event_);
  }
  flush_start_event_ =
      sim_->ScheduleAfter(power_state_.flush_delay, target_, kFlushStart);
}

void StorageDevice::BeginFlush() {
  flush_start_event_ = kInvalidEventId;
  PSBOX_CHECK(!flush_active_);
  PSBOX_CHECK_GT(buffer_bytes_, 0.0);
  flush_active_ = true;
  last_flush_update_ = sim_->Now();
  flush_end_event_ = sim_->ScheduleAfter(
      static_cast<DurationNs>(buffer_bytes_ / BytesPerNs(config_.flush_mbps)),
      target_, kFlushEnd);
  UpdateRail();
}

void StorageDevice::AdvanceFlush() {
  if (!flush_active_) {
    return;
  }
  const TimeNs now = sim_->Now();
  buffer_bytes_ -= static_cast<double>(now - last_flush_update_) *
                   BytesPerNs(config_.flush_mbps);
  buffer_bytes_ = std::max(buffer_bytes_, 0.0);
  last_flush_update_ = now;
}

void StorageDevice::OnFlushComplete() {
  flush_end_event_ = kInvalidEventId;
  flush_active_ = false;
  buffer_bytes_ = 0.0;
  UpdateRail();
  NotifyIfQuiescent();
}

void StorageDevice::NotifyIfQuiescent() {
  if (Quiescent() && on_quiescent_) {
    on_quiescent_();
  }
}

size_t StorageDevice::buffered_bytes() const {
  double bytes = buffer_bytes_;
  if (flush_active_) {
    bytes -= static_cast<double>(sim_->Now() - last_flush_update_) *
             BytesPerNs(config_.flush_mbps);
  }
  return static_cast<size_t>(std::max(bytes, 0.0));
}

std::vector<StorageDevice::AbortedCommand> StorageDevice::Reset() {
  std::vector<AbortedCommand> aborted;
  ++resets_;
  if (channel_busy_) {
    if (transfer_event_ != kInvalidEventId) {
      sim_->Cancel(transfer_event_);
      transfer_event_ = kInvalidEventId;
    }
    aborted.push_back(AbortedCommand{current_, hung_});
    channel_busy_ = false;
    hung_ = false;
    remaining_bytes_ = 0.0;
  }
  // The write-back buffer survives the reset: already-acknowledged data keeps
  // flushing to the array (its energy has to go somewhere).
  UpdateRail();
  return aborted;
}

template <class Ar>
void StorageDevice::Serialize(Ar& ar) {
  power_state_.Serialize(ar);
  ar.Bool(channel_busy_);
  ar.Bool(hung_);
  current_.Serialize(ar);
  ar.I64(current_dispatch_);
  ar.F64(remaining_bytes_);
  ar.I64(last_channel_update_);
  ar.F64(buffer_bytes_);
  ar.Bool(flush_active_);
  ar.I64(last_flush_update_);
  ar.U64(resets_);
  ar.U64(hung_commands_);
  if constexpr (Ar::kLoading) {
    transfer_event_ = sim_->FindPending(target_, kTransferDone, 0);
    flush_start_event_ = sim_->FindPending(target_, kFlushStart, 0);
    flush_end_event_ = sim_->FindPending(target_, kFlushEnd, 0);
    // Byte counts the resumed run divides and subtracts: a negative or
    // non-finite one, or a flush due to start on an empty buffer, would
    // abort BeginFlush or time a transfer or flush from garbage.
    const auto valid = [](double bytes) {
      return std::isfinite(bytes) && bytes >= 0.0;
    };
    if (!ar.ok()) {
      return;
    }
    if (!valid(buffer_bytes_)) {
      ar.Fail("storage device write-back buffer of " +
              std::to_string(buffer_bytes_) +
              " bytes is negative or not finite");
    } else if (!valid(remaining_bytes_)) {
      ar.Fail("storage device transfer remaining " +
              std::to_string(remaining_bytes_) +
              " bytes is negative or not finite");
    } else if (flush_start_event_ != kInvalidEventId && buffer_bytes_ == 0.0) {
      ar.Fail("storage device flush start is pending on an empty write-back "
              "buffer");
    }
  }
}

template void StorageDevice::Serialize(SnapshotWriter&);
template void StorageDevice::Serialize(SnapshotReader&);

void StorageDevice::SetPowerState(const StoragePowerState& state) {
  if (state.perf_level == power_state_.perf_level &&
      state.flush_delay == power_state_.flush_delay) {
    return;
  }
  // Rescale the in-progress transfer to the new bus speed: work done so far
  // is banked at the old rate, the remainder re-timed at the new one.
  if (channel_busy_ && !hung_) {
    const TimeNs now = sim_->Now();
    if (now > last_channel_update_) {
      remaining_bytes_ -= static_cast<double>(now - last_channel_update_) *
                          BusRate(current_.is_write);
      remaining_bytes_ = std::max(remaining_bytes_, 0.0);
      last_channel_update_ = now;
    }
    power_state_ = state;
    if (transfer_event_ != kInvalidEventId) {
      sim_->Cancel(transfer_event_);
    }
    // Any leftover setup prefix still has to elapse before bytes move again.
    const DurationNs lead = std::max<TimeNs>(0, last_channel_update_ - now);
    transfer_event_ = sim_->ScheduleAfter(
        lead + static_cast<DurationNs>(remaining_bytes_ /
                                       BusRate(current_.is_write)),
        target_, kTransferDone);
  } else {
    power_state_ = state;
  }
  UpdateRail();
}

}  // namespace psbox
