// Board assembly: the simulated equivalent of the paper's two prototype
// platforms (Figure 4) folded into one — an AM57EVM-like SoC (dual-A15 CPU,
// SGX544-like GPU, C66x-like DSP) plus a WiLink8-like WiFi module, each on
// its own measurable power rail, instrumented by a 100 kHz in-situ meter.

#ifndef SRC_HW_BOARD_H_
#define SRC_HW_BOARD_H_

#include <memory>

#include "src/base/rng.h"
#include "src/hw/accel_device.h"
#include "src/hw/cpu_device.h"
#include "src/hw/display_device.h"
#include "src/hw/gps_device.h"
#include "src/hw/power_meter.h"
#include "src/hw/power_rail.h"
#include "src/hw/storage_device.h"
#include "src/hw/wifi_device.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace psbox {

struct BoardConfig {
  uint64_t seed = 0x5eed;
  CpuConfig cpu;
  AccelConfig gpu = MakeGpuConfig();
  AccelConfig dsp = MakeDspConfig();
  WifiConfig wifi;
  DisplayConfig display;
  GpsConfig gps;
  StorageConfig storage;
  PowerMeterConfig meter;
  // Deterministic fault plan; the default injects nothing (ideal hardware).
  FaultPlan faults;
};

class Board {
 public:
  explicit Board(BoardConfig config = {});
  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }
  FaultInjector& fault_injector() { return *fault_injector_; }
  const FaultInjector& fault_injector() const { return *fault_injector_; }

  CpuDevice& cpu() { return *cpu_; }
  AccelDevice& gpu() { return *gpu_; }
  AccelDevice& dsp() { return *dsp_; }
  WifiDevice& wifi() { return *wifi_; }
  DisplayDevice& display() { return *display_; }
  GpsDevice& gps() { return *gps_; }
  StorageDevice& storage() { return *storage_; }
  PowerMeter& meter() { return *meter_; }

  PowerRail& cpu_rail() { return *cpu_rail_; }
  PowerRail& gpu_rail() { return *gpu_rail_; }
  PowerRail& dsp_rail() { return *dsp_rail_; }
  PowerRail& wifi_rail() { return *wifi_rail_; }
  PowerRail& display_rail() { return *display_rail_; }
  PowerRail& gps_rail() { return *gps_rail_; }
  PowerRail& storage_rail() { return *storage_rail_; }

  PowerRail& RailFor(HwComponent hw);
  const BoardConfig& config() const { return config_; }

  // Snapshot support: serialises every rail history, every device, the meter,
  // the board RNG, and the fault-injector streams. The simulator clock and
  // pending events are the engine's own section (the devices take their
  // timer handles back from it); configuration is not serialised — restore
  // requires a Board built from the identical BoardConfig.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  BoardConfig config_;
  Simulator sim_;
  Rng rng_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<PowerRail> cpu_rail_;
  std::unique_ptr<PowerRail> gpu_rail_;
  std::unique_ptr<PowerRail> dsp_rail_;
  std::unique_ptr<PowerRail> wifi_rail_;
  std::unique_ptr<PowerRail> display_rail_;
  std::unique_ptr<PowerRail> gps_rail_;
  std::unique_ptr<PowerRail> storage_rail_;
  std::unique_ptr<CpuDevice> cpu_;
  std::unique_ptr<AccelDevice> gpu_;
  std::unique_ptr<AccelDevice> dsp_;
  std::unique_ptr<WifiDevice> wifi_;
  std::unique_ptr<DisplayDevice> display_;
  std::unique_ptr<GpsDevice> gps_;
  std::unique_ptr<StorageDevice> storage_;
  std::unique_ptr<PowerMeter> meter_;
};

}  // namespace psbox

#endif  // SRC_HW_BOARD_H_
