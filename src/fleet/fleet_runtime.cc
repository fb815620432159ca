#include "src/fleet/fleet_runtime.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

// SplitMix64 step: derives statistically independent per-shard seeds from
// (fleet seed, stream index) so board randomness never depends on how many
// boards exist before it in the spec list.
uint64_t DeriveSeed(uint64_t master, uint64_t stream) {
  uint64_t z = master + (stream + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

FleetRuntime::FleetRuntime(FleetScenario scenario)
    : scenario_(std::move(scenario)), policy_(scenario_.migration) {
  BuildShards();
}

FleetRuntime::~FleetRuntime() = default;

void FleetRuntime::BuildShards() {
  PSBOX_CHECK(!scenario_.boards.empty());
  PSBOX_CHECK_GT(scenario_.epoch, 0);
  PSBOX_CHECK_GT(scenario_.horizon, 0);
  PSBOX_CHECK_GE(scenario_.subfleets, 1);
  PSBOX_CHECK_LE(static_cast<size_t>(scenario_.subfleets),
                 scenario_.boards.size());
  PSBOX_CHECK_GE(scenario_.root_period, 1);
  PSBOX_CHECK_GE(scenario_.fleet_budget, 0.0);

  shards_.reserve(scenario_.boards.size());
  board_iterations_.assign(scenario_.boards.size(), 0);
  for (size_t i = 0; i < scenario_.boards.size(); ++i) {
    const FleetBoardSpec& spec = scenario_.boards[i];
    auto shard = std::make_unique<FleetShard>();
    shard->index = static_cast<int>(i);
    shard->fail_at = spec.fail_at;
    BoardConfig board_config = spec.board;
    board_config.seed = DeriveSeed(scenario_.seed, i * 2);
    board_config.faults.seed = DeriveSeed(scenario_.seed, i * 2 + 1);
    shard->board = std::make_unique<Board>(board_config);
    shard->kernel = std::make_unique<Kernel>(shard->board.get(), spec.kernel);
    shard->manager = std::make_unique<PsboxManager>(shard->kernel.get());
    if (scenario_.population.enabled()) {
      // An independent deterministic stream per board, keyed off the
      // population's own seed space (stream indices disjoint from the
      // board/fault streams above by construction — different master seed).
      shard->population = std::make_unique<BoardPopulation>(
          scenario_.population, DeriveSeed(scenario_.population.seed, i),
          static_cast<int>(i), shard->kernel.get(), shard->manager.get());
    }
    shards_.push_back(std::move(shard));
  }

  apps_.reserve(scenario_.apps.size());
  for (const FleetAppSpec& spec : scenario_.apps) {
    PSBOX_CHECK(spec.factory != nullptr);
    PSBOX_CHECK_GE(spec.board, 0);
    PSBOX_CHECK_LT(static_cast<size_t>(spec.board), shards_.size());
    PSBOX_CHECK(spec.options.stop == nullptr);  // the coordinator owns this
    FleetAppRuntime app;
    app.spec = spec;
    app.budget_remaining = spec.energy_budget;
    app.remaining = spec.options.iterations;
    apps_.push_back(std::move(app));
  }
}

void FleetRuntime::SpawnOn(FleetAppRuntime& app, int board_index) {
  FleetShard& shard = *shards_[static_cast<size_t>(board_index)];
  AppOptions opts = app.spec.options;
  opts.iterations = app.remaining;
  app.stop = std::make_shared<bool>(false);
  opts.stop = app.stop;
  std::string label = app.spec.name;
  if (app.hops > 0) {
    // Hop-qualified label so every instance is distinct in per-board output.
    label += "@b" + std::to_string(board_index);
  }
  app.handle = app.spec.factory(*shard.kernel, label, opts);
  shard.ForgetRetiredSpawns();
  shard.spawns.push_back({app.handle.app,
                          static_cast<int>(&app - apps_.data()),
                          std::move(label), app.remaining});
  app.board = board_index;
  app.draining = false;
  app.parked = false;
  app.evac_pending = false;
  app.cross_target = -1;
  app.parked_from = -1;
  app.transferred_base = 0.0;  // a state transfer re-seeds this afterwards
}

Joules FleetRuntime::CloseHop(FleetAppRuntime& app, Joules* raw_reading) {
  // Raw cumulative meter value for this hop (any transferred base included):
  // the wrap behaviour's exit reading when the app drained cleanly, otherwise
  // (crash evacuation, end-of-run settle) a live virtual-meter read at the
  // shard's current instant.
  Joules raw = app.transferred_base;  // box never created: carried value only
  if (app.spec.options.use_psbox && app.handle.stats != nullptr) {
    app.ever_sandboxed = true;
    if (app.handle.stats->psbox_energy >= 0.0) {
      raw = app.handle.stats->psbox_energy;
    } else if (app.handle.stats->box >= 0) {
      FleetShard& shard = *shards_[static_cast<size_t>(app.board)];
      raw = shard.manager->ReadEnergy(app.handle.stats->box);
    }
  }
  if (raw_reading != nullptr) {
    *raw_reading = raw;
  }
  // Billing excludes what a state transfer carried onto this board — that
  // part was already billed on the boards that actually spent it.
  const Joules consumed = std::max(0.0, raw - app.transferred_base);
  app.billed += consumed;
  app.budget_remaining = std::max(0.0, app.budget_remaining - consumed);

  // Iteration progress: fold this hop into the app's running total, shrink
  // the remaining target, and attribute the work to the board it ran on.
  const uint64_t done_hop =
      app.handle.stats != nullptr ? app.handle.stats->iterations : 0;
  app.iterations_prev += done_hop;
  if (app.remaining > 0) {
    app.remaining = done_hop >= app.remaining ? 0 : app.remaining - done_hop;
  }
  board_iterations_[static_cast<size_t>(app.board)] += done_hop;
  return consumed;
}

bool FleetRuntime::TransferAppState(FleetAppRuntime& app, int source,
                                    int target, Joules raw_reading) {
  const bool transferred = [&] {
    if (!app.spec.options.use_psbox) {
      return false;  // no virtual meter, nothing transferable
    }
    // The dying board serialises the app's billing state; a torn write
    // (power already failing) truncates the blob, which the CRC/size
    // validation below rejects — we then fall back to the drain-style carry.
    FleetShard& src = *shards_[static_cast<size_t>(source)];
    SnapshotWriter w;
    w.Section("evac");
    w.Str(app.spec.name);
    w.F64(app.budget_remaining);
    w.F64(raw_reading);
    w.U64(app.iterations_prev);
    std::vector<uint8_t> blob = w.Seal();
    if (src.board->fault_injector().ShouldCorruptSnapshot()) {
      blob.resize(blob.size() / 2);
    }
    SnapshotReader r;
    if (!r.Open(blob) || !r.Section("evac")) {
      return false;
    }
    const std::string name = r.Str();
    const Joules budget = r.F64();
    const Joules carried = r.F64();
    const uint64_t iterations = r.U64();
    if (!r.ok() || name != app.spec.name) {
      return false;
    }
    SpawnOn(app, target);
    // Billing resumes from the transferred raw value: the target's manager
    // seeds the app's next sandbox with it, and hop accounting subtracts it.
    app.budget_remaining = budget;
    app.iterations_prev = iterations;
    if (carried > 0.0) {
      shards_[static_cast<size_t>(target)]->manager->StageTransferredEnergy(
          app.handle.app, carried);
      app.transferred_base = carried;
    }
    return true;
  }();
  if (!transferred) {
    SpawnOn(app, target);  // drain-style carry: billing restarts at 0
  }
  return transferred;
}

Joules FleetRuntime::BoardEnergy(int index) const {
  FleetShard& shard = *shards_[static_cast<size_t>(index)];
  Joules total = 0.0;
  for (size_t c = 0; c < kNumHwComponents; ++c) {
    total += shard.board->RailFor(static_cast<HwComponent>(c))
                 .EnergyOver(0, shard.now);
  }
  return total;
}

}  // namespace psbox
