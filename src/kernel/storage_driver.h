// Storage driver: fair I/O scheduling + psbox temporal balloons for the
// onboard flash — the fourth sandboxed resource, onboarded entirely through
// the ResourceDomain layer.
//
// Baseline behaviour is a single-channel fair I/O scheduler: per-app request
// queues, a per-app virtual service time, dispatch favouring the app with
// the minimum virtual time. The psbox extension is the standard temporal
// balloon of the CommandDriver core, with one storage-specific twist: the
// drain phases wait for the device to go *quiescent* — channel idle AND
// write-back buffer flushed. Draining others' flush tails keeps their
// lingering write energy out of the sandbox's window; draining the owner's
// own tail keeps it in (§4.1's lingering-power-state rule applied to the
// FTL). The driver also virtualises the bus power state per psbox.

#ifndef SRC_KERNEL_STORAGE_DRIVER_H_
#define SRC_KERNEL_STORAGE_DRIVER_H_

#include "src/base/types.h"
#include "src/hw/storage_device.h"
#include "src/kernel/command_driver.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct StorageDriverConfig : CommandDriverConfig {
  // --- fault recovery -----------------------------------------------------
  // A dispatched command producing no completion within this bound is
  // declared hung: the controller is reset and aborted commands requeued.
  DurationNs command_timeout = 200 * kMillisecond;
};

class StorageDriver
    : public CommandDriver<StorageDevice, StorageCommand, StoragePowerState> {
 public:
  StorageDriver(Simulator* sim, StorageDevice* device, Kernel* kernel,
                StorageDriverConfig config = {});

  const StorageDriverConfig& config() const { return config_; }

  // Snapshot support: queues, the in-flight command with its hang watchdog,
  // power-state virtualisation, and all pending driver timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  // Balloon-in parks the global power state and applies the sandbox's;
  // balloon-out parks the sandbox's and restores the global one.
  void EnterBalloon(Lane& owner) override;
  void LeaveBalloon(Lane& owner) override;
  void Deliver(Task* task) override;
  DurationNs CommandTimeout(const StorageCommand& /*cmd*/) const override {
    return config_.command_timeout;
  }
  // Only a hung command wedges the channel; a drain still waiting on a
  // flush tail needs no reset.
  bool DrainStuck() const override { return device_->Wedged(); }

  StorageDriverConfig config_;
  StoragePowerState global_state_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_STORAGE_DRIVER_H_
