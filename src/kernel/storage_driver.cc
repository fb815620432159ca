#include "src/kernel/storage_driver.h"

#include "src/kernel/kernel.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

StorageDriver::StorageDriver(Simulator* sim, StorageDevice* device,
                             Kernel* kernel, StorageDriverConfig config)
    : CommandDriver(sim, HwComponent::kStorage, device, kernel, config),
      config_(config) {
  // Quiescence (channel idle, buffer flushed) is what the drain phases wait
  // for; the device tells us the moment it happens.
  device_->set_on_quiescent([this] { Pump(); });
  global_state_ = device_->power_state();
}

void StorageDriver::EnterBalloon(Lane& owner) {
  global_state_ = device_->power_state();
  device_->SetPowerState(owner.extra.vstate);
}

void StorageDriver::LeaveBalloon(Lane& owner) {
  owner.extra.vstate = device_->power_state();
  device_->SetPowerState(global_state_);
}

void StorageDriver::Deliver(Task* task) {
  kernel_->DeliverCompletion(task, task->pending_storage_completions,
                             task->awaited_storage_completions);
}

template <class Ar>
void StorageDriver::Serialize(Ar& ar) {
  SerializeCommands(ar, "storage_driver",
                    [&] { global_state_.Serialize(ar); });
}

template void StorageDriver::Serialize(SnapshotWriter&);
template void StorageDriver::Serialize(SnapshotReader&);

}  // namespace psbox
