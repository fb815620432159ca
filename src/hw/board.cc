#include "src/hw/board.h"

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

BoardConfig::BoardConfig() = default;

Board::Board(BoardConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // The injector seeds its own per-scope streams from the plan seed, so
  // attaching it never perturbs the board RNG forks below (faultless runs
  // stay bit-identical to pre-fault-injection builds).
  fault_injector_ = std::make_unique<FaultInjector>(config_.faults);
  cpu_rail_ = std::make_unique<PowerRail>(&sim_, "cpu", config_.cpu.idle_power);
  gpu_rail_ = std::make_unique<PowerRail>(&sim_, "gpu", config_.gpu.idle_power);
  dsp_rail_ = std::make_unique<PowerRail>(&sim_, "dsp", config_.dsp.idle_power);
  wifi_rail_ = std::make_unique<PowerRail>(&sim_, "wifi", config_.wifi.idle_power);
  display_rail_ =
      std::make_unique<PowerRail>(&sim_, "display", config_.display.base_power);
  gps_rail_ = std::make_unique<PowerRail>(&sim_, "gps", config_.gps.off_power);
  storage_rail_ =
      std::make_unique<PowerRail>(&sim_, "storage", config_.storage.idle_power);
  cpu_ = std::make_unique<CpuDevice>(&sim_, cpu_rail_.get(), config_.cpu);
  gpu_ = std::make_unique<AccelDevice>(&sim_, gpu_rail_.get(), config_.gpu);
  dsp_ = std::make_unique<AccelDevice>(&sim_, dsp_rail_.get(), config_.dsp);
  wifi_ = std::make_unique<WifiDevice>(&sim_, wifi_rail_.get(), config_.wifi);
  display_ = std::make_unique<DisplayDevice>(&sim_, display_rail_.get(),
                                             config_.display);
  gps_ = std::make_unique<GpsDevice>(&sim_, gps_rail_.get(), config_.gps);
  // Built after the other devices and forking no RNG, the storage device
  // leaves meter seeding and the other devices' event target indices
  // untouched.
  storage_ = std::make_unique<StorageDevice>(&sim_, storage_rail_.get(),
                                             config_.storage);
  meter_ = std::make_unique<PowerMeter>(rng_.Fork(), config_.meter);

  cpu_->set_fault_injector(fault_injector_.get());
  gpu_->set_fault_injector(fault_injector_.get());
  dsp_->set_fault_injector(fault_injector_.get());
  wifi_->set_fault_injector(fault_injector_.get());
  storage_->set_fault_injector(fault_injector_.get());
  meter_->set_fault_injector(fault_injector_.get());
}

template <class Ar>
void Board::Serialize(Ar& ar) {
  if (!ar.Section("board")) {
    return;
  }
  rng_.Serialize(ar);
  fault_injector_->Serialize(ar);
  // Rails in construction order, then devices in construction order.
  cpu_rail_->Serialize(ar);
  gpu_rail_->Serialize(ar);
  dsp_rail_->Serialize(ar);
  wifi_rail_->Serialize(ar);
  display_rail_->Serialize(ar);
  gps_rail_->Serialize(ar);
  storage_rail_->Serialize(ar);
  cpu_->Serialize(ar);
  gpu_->Serialize(ar);
  dsp_->Serialize(ar);
  wifi_->Serialize(ar);
  display_->Serialize(ar);
  gps_->Serialize(ar);
  storage_->Serialize(ar);
  meter_->Serialize(ar);
}

template void Board::Serialize(SnapshotWriter&);
template void Board::Serialize(SnapshotReader&);

PowerRail& Board::RailFor(HwComponent hw) {
  switch (hw) {
    case HwComponent::kCpu:
      return *cpu_rail_;
    case HwComponent::kGpu:
      return *gpu_rail_;
    case HwComponent::kDsp:
      return *dsp_rail_;
    case HwComponent::kWifi:
      return *wifi_rail_;
    case HwComponent::kDisplay:
      return *display_rail_;
    case HwComponent::kGps:
      return *gps_rail_;
    case HwComponent::kStorage:
      return *storage_rail_;
  }
  PSBOX_CHECK(false);
}

}  // namespace psbox
