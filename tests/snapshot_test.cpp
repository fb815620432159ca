// Checkpoint/restore contracts:
//
//   bit identity — a board shard serialised at a quiescent point and restored
//     into a fresh world is indistinguishable from the original: re-saving it
//     yields the same bytes, and continuing both worlds yields the same
//     bytes again. At fleet scope, a run interrupted by checkpoint + restore
//     reproduces the uninterrupted run's fingerprint at any thread count and
//     with telemetry retention on or off.
//
//   corruption rejection — truncation, bit flips, a foreign magic/version,
//     and scenario mismatches are all refused up front with a descriptive
//     error; no partial state ever reaches a live board. Behind a valid CRC,
//     field checks reject malformed values, and no mutated payload crashes
//     a restore.
//
//   format compatibility — a golden snapshot committed to the repo must stay
//     restorable, and re-cutting its scenario must reproduce it byte for
//     byte; breaking it means the format changed without a version bump
//     (regen with PSBOX_REGEN_GOLDEN=1 after bumping).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/fleet/root_coordinator.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- board-level round trip ------------------------------------------------

struct World {
  std::unique_ptr<Board> board;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<PsboxManager> manager;
};

World MakeWorld() {
  World w;
  BoardConfig config;
  config.seed = 0x70B0;
  w.board = std::make_unique<Board>(config);
  w.kernel = std::make_unique<Kernel>(w.board.get(), KernelConfig{});
  w.manager = std::make_unique<PsboxManager>(w.kernel.get());
  return w;
}

void SpawnApps(World& w) {
  AppOptions sandboxed;
  sandboxed.use_psbox = true;
  sandboxed.deadline = Millis(800);
  SpawnCalib3d(*w.kernel, "calib3d", sandboxed);
  AppOptions plain;
  plain.deadline = Millis(800);
  SpawnScp(*w.kernel, "scp", plain);
}

std::vector<uint8_t> SaveShard(World& w) {
  SnapshotWriter writer;
  std::string error;
  EXPECT_TRUE(
      SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error))
      << error;
  return writer.Seal();
}

TEST(BoardSnapshotTest, RoundTripIsBitIdentical) {
  World original = MakeWorld();
  SpawnApps(original);
  original.kernel->RunUntil(Millis(200));
  const std::vector<uint8_t> at_200ms = SaveShard(original);

  World restored = MakeWorld();
  SnapshotReader r;
  ASSERT_TRUE(r.Open(at_200ms)) << r.error();
  std::string error;
  ASSERT_TRUE(RestoreBoardShard(r, *restored.board, *restored.kernel,
                                *restored.manager,
                                [&restored] { SpawnApps(restored); }, &error))
      << error;

  // Saving the restored world immediately reproduces the exact bytes: every
  // field that went in came back out.
  EXPECT_EQ(SaveShard(restored), at_200ms);

  // And the restored world *behaves* identically: both worlds advanced the
  // same distance produce the same bytes again, same event count included.
  original.kernel->RunUntil(Millis(500));
  restored.kernel->RunUntil(Millis(500));
  EXPECT_EQ(original.kernel->sim().total_fired(),
            restored.kernel->sim().total_fired());
  EXPECT_EQ(SaveShard(restored), SaveShard(original));
}

// --- fleet-level warm restart ----------------------------------------------

// Three boards, mixed sandboxed/plain apps, one mid-run board failure: the
// checkpoint exercised here covers live shards, a frozen (failed) shard,
// pending timers, sandboxes, and migration history. The DSP app is alone on
// its accelerator, so its one balloon stays open across any cut.
FleetScenario CheckpointScenario(DurationNs retention) {
  FleetScenario scenario;
  scenario.seed = 0xC4EC;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(3);
  scenario.boards[1].fail_at = Millis(400);
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = retention;
  }

  struct Mix {
    const char* name;
    AppFactory factory;
    int board;
    bool sandboxed;
    Joules budget;
  };
  const Mix mix[] = {
      {"calib3d", &SpawnCalib3d, 0, true, 1.0},
      {"triangle", &SpawnTriangle, 1, true, 0.7},
      {"bodytrack", &SpawnBodytrack, 1, false, 0.0},
      {"scp", &SpawnScp, 2, true, 0.5},
      {"mediascan", &SpawnMediaScan, 2, true, 0.4},
      {"sgemm", &SpawnSgemm, 0, true, 0.0},
  };
  for (const Mix& m : mix) {
    FleetAppSpec spec;
    spec.name = m.name;
    spec.factory = m.factory;
    spec.board = m.board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = m.sandboxed;
    spec.energy_budget = m.budget;
    spec.migratable = m.sandboxed;
    scenario.apps.push_back(spec);
  }
  return scenario;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

// Whether some box on |fleet| owns a component through a balloon still open
// at its current time |now| whose start only its anchor still resolves.
bool HasAnchoredOpenBalloon(RootCoordinator& fleet, TimeNs now) {
  for (int b = 0; b < fleet.board_count(); ++b) {
    PsboxManager& manager = fleet.manager(b);
    for (const int box : manager.BoxIds()) {
      const PowerSandbox& sb = manager.sandbox(box);
      for (HwComponent hw : sb.hardware()) {
        // Closed intervals end at or before now, so ownership at now means
        // the balloon is open.
        if (sb.anchored(hw) && sb.OwnedAt(hw, now)) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(FleetCheckpointTest, WarmRestartMatchesUninterruptedRun) {
  for (const DurationNs retention : {DurationNs{0}, Millis(100)}) {
    SCOPED_TRACE("retention=" + std::to_string(retention));
    const FleetScenario scenario = CheckpointScenario(retention);
    const uint64_t baseline = RootCoordinator(scenario, 2).Run().Fingerprint();

    // Checkpoint at epoch 73 (730 ms) — after the board-1 crash, mid-run.
    const std::string path = TempPath("fleet_warm_restart.snap");
    RootCoordinator writer(scenario, 2);
    writer.set_checkpoint(path, 73);
    EXPECT_EQ(writer.Run().Fingerprint(), baseline)
        << "checkpointing itself must not perturb the run";

    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::string error;
      auto restored =
          RootCoordinator::RestoreFromCheckpoint(scenario, threads, path, &error);
      ASSERT_NE(restored, nullptr) << error;
      EXPECT_EQ(restored->resume_time(), Millis(730));
      // Under retention the cut falls inside an anchored open balloon: the
      // restored run keeps integrating it from the checkpointed anchor.
      EXPECT_EQ(HasAnchoredOpenBalloon(*restored, Millis(730)), retention > 0);
      EXPECT_EQ(restored->Run().Fingerprint(), baseline);
    }
  }
}

// A hierarchical fleet checkpoint carries strictly more state than a flat
// one: per-sub-fleet budget allocations, per-sub-fleet spawn logs and
// migration histories, the root migration list, and any apps parked between
// sub-fleets at the cut. Warm restart through that format must still
// reproduce the uninterrupted fingerprint, at any thread count.
//
// Checkpoints cut only at root boundaries: with a 10 ms epoch and
// root_period = 4 the boundaries fall on 40 ms multiples, so a cadence of
// "every 73 epochs" fires at the first boundary at or past epoch 73 —
// epoch 76, i.e. 760 ms.
TEST(FleetCheckpointTest, HierarchicalWarmRestartMatchesUninterruptedRun) {
  for (const DurationNs retention : {DurationNs{0}, Millis(100)}) {
    SCOPED_TRACE("retention=" + std::to_string(retention));
    FleetScenario scenario = CheckpointScenario(retention);
    scenario.subfleets = 2;
    scenario.root_period = 4;
    scenario.fleet_budget = 8.0;
    const uint64_t baseline = RootCoordinator(scenario, 2).Run().Fingerprint();

    const std::string path = TempPath("fleet_hier_restart.snap");
    RootCoordinator writer(scenario, 2);
    writer.set_checkpoint(path, 73);
    EXPECT_EQ(writer.Run().Fingerprint(), baseline)
        << "checkpointing itself must not perturb the run";

    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::string error;
      auto restored =
          RootCoordinator::RestoreFromCheckpoint(scenario, threads, path, &error);
      ASSERT_NE(restored, nullptr) << error;
      EXPECT_EQ(restored->resume_time(), Millis(760));
      EXPECT_EQ(restored->Run().Fingerprint(), baseline);
    }
  }
}

// --- corruption rejection --------------------------------------------------

class SnapshotCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    scenario_ = CheckpointScenario(0);
    path_ = TempPath("fleet_corruption.snap");
    RootCoordinator fleet(scenario_, 2);
    fleet.set_checkpoint(path_, 50);
    fleet.Run();
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), kSnapshotHeaderSize);
  }

  // Writes |bytes| to a scratch file and expects restore to fail with an
  // error mentioning |expect_in_error|.
  void ExpectRejected(const std::vector<uint8_t>& bytes,
                      const std::string& expect_in_error) {
    const std::string path = TempPath("fleet_corrupted.snap");
    WriteFileBytes(path, bytes);
    std::string error;
    auto restored =
        RootCoordinator::RestoreFromCheckpoint(scenario_, 2, path, &error);
    EXPECT_EQ(restored, nullptr);
    EXPECT_NE(error.find(expect_in_error), std::string::npos)
        << "error was: " << error;
  }

  FleetScenario scenario_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncationRejected) {
  std::vector<uint8_t> torn = bytes_;
  torn.resize(torn.size() / 2);
  ExpectRejected(torn, "truncated");
}

TEST_F(SnapshotCorruptionTest, HeaderTruncationRejected) {
  std::vector<uint8_t> stub = bytes_;
  stub.resize(kSnapshotHeaderSize / 2);
  ExpectRejected(stub, "header truncated");
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipRejected) {
  std::vector<uint8_t> flipped = bytes_;
  flipped[kSnapshotHeaderSize + flipped.size() / 3] ^= 0x10;
  ExpectRejected(flipped, "CRC");
}

TEST_F(SnapshotCorruptionTest, ForeignMagicRejected) {
  std::vector<uint8_t> foreign = bytes_;
  foreign[0] ^= 0xFF;
  ExpectRejected(foreign, "magic");
}

TEST_F(SnapshotCorruptionTest, UnknownVersionRejected) {
  // A future version, and v4: its dense records predate the live-object
  // layout and must not be misparsed.
  for (const uint32_t version : {kSnapshotFormatVersion + 1, uint32_t{4}}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    std::vector<uint8_t> bytes = bytes_;
    bytes[8] = static_cast<uint8_t>(version);  // format version field (LE)
    ExpectRejected(bytes, "version");
  }
}

TEST_F(SnapshotCorruptionTest, DifferentScenarioRejected) {
  FleetScenario other = scenario_;
  other.seed ^= 1;
  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(other, 2, path_, &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_NE(error.find("different fleet scenario"), std::string::npos)
      << "error was: " << error;
}

TEST_F(SnapshotCorruptionTest, MissingFileRejected) {
  std::string error;
  auto restored = RootCoordinator::RestoreFromCheckpoint(
      scenario_, 2, TempPath("does_not_exist.snap"), &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos)
      << "error was: " << error;
}

// The snapshot_corrupt fault scope: a checkpoint written while the writing
// board is injecting snapshot corruption is torn mid-file, and a restore
// attempt rejects it the same way as any other truncation.
TEST_F(SnapshotCorruptionTest, TornCheckpointWriteRejectedOnRestore) {
  FleetScenario scenario = CheckpointScenario(0);
  scenario.boards[0].board.faults.snapshot_corrupt_prob = 1.0;
  const std::string path = TempPath("fleet_torn.snap");
  RootCoordinator fleet(scenario, 2);
  fleet.set_checkpoint(path, 50);
  fleet.Run();  // the run itself is oblivious to the torn write

  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(scenario, 2, path, &error);
  EXPECT_EQ(restored, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("truncated"), std::string::npos)
      << "error was: " << error;
}

// --- golden snapshot -------------------------------------------------------

// Pinned scenario for the committed golden checkpoint. Never change this
// without regenerating the golden (and bumping kSnapshotFormatVersion if the
// wire format moved).
FleetScenario GoldenScenario() {
  FleetScenario scenario;
  scenario.seed = 0x601D;
  scenario.horizon = Millis(500);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(2);
  // Hierarchical so the golden pins the v2 blocks too: two one-board
  // sub-fleets, root barrier every 2 epochs, a fleet-wide budget.
  scenario.subfleets = 2;
  scenario.root_period = 2;
  scenario.fleet_budget = 2.0;

  FleetAppSpec calib;
  calib.name = "calib3d";
  calib.factory = &SpawnCalib3d;
  calib.board = 0;
  calib.options.deadline = scenario.horizon;
  calib.options.use_psbox = true;
  calib.energy_budget = 1.0;
  calib.migratable = true;
  scenario.apps.push_back(calib);

  FleetAppSpec scp;
  scp.name = "scp";
  scp.factory = &SpawnScp;
  scp.board = 1;
  scp.options.deadline = scenario.horizon;
  scp.options.use_psbox = true;
  scenario.apps.push_back(scp);

  // Generated population so the golden pins the v3 blocks too: the
  // population compat block, per-record spawn timestamps, and the nested
  // tenant sandbox state — the checkpoint cuts mid-population.
  scenario.population.seed = 0x90D5;
  scenario.population.base_rate_hz = 40.0;
  scenario.population.diurnal_amplitude = 0.5;
  scenario.population.tenants_per_board = 2;
  scenario.population.tenant_budget = 0.5;
  scenario.population.child_budget = 0.05;
  // Retention so the golden pins the v5 blocks too: by the cut, finished
  // population apps have retired and only the live ones travel.
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = Millis(50);
  }
  return scenario;
}

std::string GoldenPath() {
  return std::string(PSBOX_SOURCE_DIR) +
         "/tests/golden/fleet_checkpoint_v5.snap";
}

TEST(GoldenSnapshotTest, CommittedCheckpointStaysRestorable) {
  const std::string golden = GoldenPath();
  if (std::getenv("PSBOX_REGEN_GOLDEN") != nullptr) {
    RootCoordinator fleet(GoldenScenario(), 2);
    // Cadence 25 with root boundaries on 20 ms multiples: the one
    // checkpoint fires at epoch 26 (260 ms).
    fleet.set_checkpoint(golden, 25);
    fleet.Run();
    GTEST_SKIP() << "regenerated " << golden;
  }

  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(GoldenScenario(), 2, golden, &error);
  ASSERT_NE(restored, nullptr)
      << "committed golden snapshot no longer restores — the wire format "
         "changed without a version bump (or the golden scenario drifted): "
      << error;
  EXPECT_EQ(restored->resume_time(), Millis(260));
  uint64_t retired = 0;
  for (int b = 0; b < restored->board_count(); ++b) {
    retired += restored->kernel(b).retired_apps();
  }
  EXPECT_GT(retired, 0u) << "the golden cut must cover retired apps";
  // Resuming from the golden must still converge on the uninterrupted run:
  // the golden guards semantic compatibility, not just parseability.
  EXPECT_EQ(restored->Run().Fingerprint(),
            RootCoordinator(GoldenScenario(), 2).Run().Fingerprint());
}

// Re-cutting the golden scenario writes the committed file byte for byte, at
// any thread count. Restoring the golden alone cannot pin the wire format:
// two same-width fields swapped in one Serialize body would still restore,
// into fields (stats counters, say) that no fingerprint reads.
TEST(GoldenSnapshotTest, RecutCheckpointMatchesCommittedBytes) {
  const std::vector<uint8_t> golden = ReadFileBytes(GoldenPath());
  ASSERT_GT(golden.size(), kSnapshotHeaderSize);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string path = TempPath("golden_recut.snap");
    RootCoordinator fleet(GoldenScenario(), threads);
    fleet.set_checkpoint(path, 25);
    fleet.Run();
    const std::vector<uint8_t> recut = ReadFileBytes(path);
    ASSERT_EQ(recut.size(), golden.size());
    // The header's CRC differs whenever the payload does; name the payload
    // byte.
    const auto payload = static_cast<ptrdiff_t>(kSnapshotHeaderSize);
    const auto diff = std::mismatch(recut.begin() + payload, recut.end(),
                                    golden.begin() + payload);
    EXPECT_TRUE(recut == golden)
        << "first differing payload byte at offset "
        << (diff.first - recut.begin() - payload);
  }
}

// --- corruption behind the CRC ----------------------------------------------

// Wraps |payload| in a fresh header and CRC, as a writer would: the payload's
// field checks, not the CRC, must then reject it.
std::vector<uint8_t> Reseal(const std::vector<uint8_t>& payload) {
  SnapshotWriter w;
  w.Bytes(payload.data(), payload.size());
  return w.Seal();
}

std::vector<uint8_t> GoldenPayload() {
  const std::vector<uint8_t> sealed = ReadFileBytes(GoldenPath());
  EXPECT_GT(sealed.size(), kSnapshotHeaderSize);
  return std::vector<uint8_t>(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
}

// Offset just past the first section marker named |name| at or after |from|.
size_t AfterSection(const std::vector<uint8_t>& payload,
                    const std::string& name, size_t from = 0) {
  std::vector<uint8_t> marker = {0x5E, 0xC7, static_cast<uint8_t>(name.size())};
  marker.insert(marker.end(), name.begin(), name.end());
  const auto it = std::search(payload.begin() + static_cast<ptrdiff_t>(from),
                              payload.end(), marker.begin(), marker.end());
  EXPECT_TRUE(it != payload.end()) << "no '" << name << "' section";
  return static_cast<size_t>(it - payload.begin()) + marker.size();
}

// Restores |sealed| under |scenario|; on failure |error| says why.
bool RestoreBytes(const FleetScenario& scenario,
                  const std::vector<uint8_t>& sealed, std::string* error) {
  const std::string path = TempPath("golden_mutated.snap");
  WriteFileBytes(path, sealed);
  return RootCoordinator::RestoreFromCheckpoint(scenario, 1, path, error) !=
         nullptr;
}

bool RestoreGoldenBytes(const std::vector<uint8_t>& sealed,
                        std::string* error) {
  return RestoreBytes(GoldenScenario(), sealed, error);
}

// Writes |value| little-endian into the 8 bytes at |at|.
void PutU64(std::vector<uint8_t>& payload, size_t at, uint64_t value) {
  for (size_t b = 0; b < 8; ++b) {
    payload[at + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

// A sandbox bound to component 7: the seven-entry domain registry has no
// such slot, so restore must refuse the byte before replaying CreateBox.
TEST(SnapshotFieldCheckTest, OutOfRangeSandboxHardwareRejected) {
  std::vector<uint8_t> payload = GoldenPayload();
  const size_t psbox = AfterSection(payload, "psbox");
  // Past the marker: the RNG (4 words, a flag, a cached sample: 41 bytes),
  // the staged-transfer count (none staged here), the box id counter, the
  // box count, then the first box's id, app id and hardware count.
  const size_t staged = psbox + 41;
  ASSERT_TRUE(std::all_of(payload.begin() + static_cast<ptrdiff_t>(staged),
                          payload.begin() + static_cast<ptrdiff_t>(staged + 8),
                          [](uint8_t b) { return b == 0; }));
  const size_t first_hw = psbox + 89;
  ASSERT_LT(payload[first_hw], 7);
  payload[first_hw] = 7;
  std::string error;
  EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
  EXPECT_NE(error.find("sandbox hardware component 7 out of range"),
            std::string::npos)
      << "error was: " << error;
}

// A balloon phase past kDrainOwner: the driver's phase switch would match no
// case and spin once the run resumed.
TEST(SnapshotFieldCheckTest, OutOfRangeBalloonPhaseRejected) {
  std::vector<uint8_t> payload = GoldenPayload();
  const size_t phase =
      AfterSection(payload, "domain", AfterSection(payload, "accel_driver"));
  ASSERT_LT(payload[phase], 4);
  payload[phase] = 9;
  std::string error;
  EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
  EXPECT_NE(error.find("balloon phase 9 out of range"), std::string::npos)
      << "error was: " << error;
}

// Board 0's first task (id 1, calib3d) moved to core 9 of a 2-core board:
// the restored run would index past the scheduler's cores.
TEST(SnapshotFieldCheckTest, OutOfRangeTaskCoreRejected) {
  std::vector<uint8_t> payload = GoldenPayload();
  const size_t kernel = AfterSection(payload, "kernel");
  // The app record: id, name (u32 length, bytes), exit time, task count;
  // then the task: id, app id, state (1 byte), seven fields (57 bytes), core.
  const std::string name = "calib3d";
  const auto it = std::search(payload.begin() + static_cast<ptrdiff_t>(kernel),
                              payload.end(), name.begin(), name.end());
  ASSERT_TRUE(it != payload.end());
  const auto at = static_cast<size_t>(it - payload.begin());
  const auto read_u64 = [&payload](size_t pos) {
    uint64_t v = 0;
    for (size_t b = 0; b < 8; ++b) {
      v |= static_cast<uint64_t>(payload[pos + b]) << (8 * b);
    }
    return v;
  };
  const size_t name_end = at + payload[at - 4];
  ASSERT_EQ(read_u64(name_end + 16), 1u) << "first task id";
  const size_t core = name_end + 16 + 8 + 8 + 1 + 57;
  ASSERT_LT(read_u64(core), 2u);
  for (size_t b = 0; b < 8; ++b) {
    payload[core + b] = b == 0 ? 9 : 0;
  }
  std::string error;
  EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
  EXPECT_NE(error.find("snapshot task 1 core 9 out of range"), std::string::npos)
      << "error was: " << error;
}

// Board indices in the fleet section that the resumed run would index the
// shard list, the root's load view or the per-board stats with. Before this
// check each of these restored cleanly and then aborted in Run().
TEST(SnapshotFieldCheckTest, OutOfRangeFleetBoardRejected) {
  const char* const kOutOfRange =
      "checkpoint app state references an out-of-range board";
  // App 0's hand-off fields: cross_target (-1), parked, evac_pending,
  // parked_from (-1) — the first such run of bytes in the fleet section.
  const std::vector<uint8_t> golden = GoldenPayload();
  std::vector<uint8_t> handoff(8, 0xFF);
  handoff.insert(handoff.end(), {0, 0});
  handoff.insert(handoff.end(), 8, 0xFF);
  const auto fleet = golden.begin() +
                     static_cast<ptrdiff_t>(AfterSection(golden, "fleet"));
  const auto it =
      std::search(fleet, golden.end(), handoff.begin(), handoff.end());
  ASSERT_TRUE(it != golden.end());
  const auto at = static_cast<size_t>(it - golden.begin());
  {
    SCOPED_TRACE("parked towards cross_target 99");
    std::vector<uint8_t> payload = golden;
    PutU64(payload, at, 99);
    payload[at + 8] = 1;
    std::string error;
    EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
    EXPECT_NE(error.find(kOutOfRange), std::string::npos)
        << "error was: " << error;
  }
  {
    SCOPED_TRACE("evacuation pending from parked_from 99");
    std::vector<uint8_t> payload = golden;
    payload[at + 9] = 1;
    PutU64(payload, at + 10, 99);
    std::string error;
    EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
    EXPECT_NE(error.find(kOutOfRange), std::string::npos)
        << "error was: " << error;
  }

  // The golden cut holds no migration record, so cut one after board 1's
  // crash at 400 ms, which moves calib3d: (400 ms, "calib3d", from 1, to).
  const FleetScenario scenario = CheckpointScenario(0);
  const std::string path = TempPath("fleet_migrated.snap");
  RootCoordinator writer(scenario, 1);
  writer.set_checkpoint(path, 50);
  writer.Run();
  const std::vector<uint8_t> sealed = ReadFileBytes(path);
  ASSERT_GT(sealed.size(), kSnapshotHeaderSize);
  const std::vector<uint8_t> cut(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
  std::vector<uint8_t> record(8, 0);
  PutU64(record, 0, static_cast<uint64_t>(Millis(400)));
  const std::string app = "calib3d";
  record.insert(record.end(), {static_cast<uint8_t>(app.size()), 0, 0, 0});
  record.insert(record.end(), app.begin(), app.end());
  const size_t from_at = record.size();
  record.resize(from_at + 8, 0);
  PutU64(record, from_at, 1);
  const auto rec = std::search(cut.begin(), cut.end(), record.begin(),
                               record.end());
  ASSERT_TRUE(rec != cut.end()) << "no crash migration record in the cut";
  const auto from = static_cast<size_t>(rec - cut.begin()) + from_at;
  for (const size_t field : {from, from + 8}) {
    SCOPED_TRACE(field == from ? "migration from 99" : "migration to 99");
    std::vector<uint8_t> payload = cut;
    PutU64(payload, field, 99);
    std::string error;
    EXPECT_FALSE(RestoreBytes(scenario, Reseal(payload), &error));
    EXPECT_NE(error.find(kOutOfRange), std::string::npos)
        << "error was: " << error;
  }
}

// A live app id the restore replay never created: the kernel keeps exactly
// the listed apps, so it must name the one it cannot find.
TEST(SnapshotFieldCheckTest, UnknownAppIdRejected) {
  std::vector<uint8_t> payload = GoldenPayload();
  // Past the marker: the app and task id counters, the retired count, the
  // live app count, then the first live app's id.
  const size_t first_app = AfterSection(payload, "kernel") + 32;
  const uint64_t unknown = 999999;
  for (size_t b = 0; b < 8; ++b) {
    payload[first_app + b] = static_cast<uint8_t>(unknown >> (8 * b));
  }
  std::string error;
  EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
  EXPECT_NE(error.find("snapshot lists app 999999 that the restored scenario "
                       "did not create"),
            std::string::npos)
      << "error was: " << error;
}

// Accelerator driver state that is well formed field by field but
// contradicts itself or the restored device. Before the cross-field checks
// each of these restored cleanly and then aborted in Run().
TEST(SnapshotFieldCheckTest, InconsistentAccelDriverRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  // Board 1's driver sections: the GPU's, then the DSP's.
  const size_t board1 = AfterSection(golden, "shard", AfterSection(golden, "shard"));
  const size_t dsp = AfterSection(golden, "accel_driver",
                                  AfterSection(golden, "accel_driver", board1));
  ASSERT_EQ(dsp, 51637u);
  const auto read = [&golden](size_t at, size_t width) {
    uint64_t v = 0;
    for (size_t b = 0; b < width; ++b) {
      v |= static_cast<uint64_t>(golden[at + b]) << (8 * b);
    }
    return v;
  };
  struct Mutation {
    const char* field;
    size_t at;       // payload offset, relative to the DSP section
    size_t width;    // bytes
    uint64_t was;    // the golden's value, cross-checked before mutating
    uint64_t value;
    const char* error;
  };
  // Past the lifecycle layer and a six-edge timeline: app 15's lane (two
  // queued commands) ends with its context, completion count and last-seen
  // time; the in-flight table's one command starts with its id; the first
  // entry of the frequency context map is context 0's OPP.
  const Mutation kMutations[] = {
      {"context 0's OPP", 638, 4, 0, 9,
       "DSP driver frequency context 0 OPP index 9 out of range"},
      {"in-flight command id", 537, 8, 6, 999,
       "DSP driver's in-flight commands are not the ones executing on the "
       "device"},
      {"app 15's lane context", 456, 4, 2, 99,
       "DSP driver app 15 names unknown frequency context 99"},
  };
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.field);
    ASSERT_EQ(read(dsp + m.at, m.width), m.was);
    std::vector<uint8_t> payload = golden;
    for (size_t b = 0; b < m.width; ++b) {
      payload[dsp + m.at + b] = static_cast<uint8_t>(m.value >> (8 * b));
    }
    std::string error;
    EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
    EXPECT_NE(error.find(m.error), std::string::npos) << "error was: " << error;
  }
}

// Seeded mutations of the golden payload, each re-sealed so the CRC passes:
// bit flips, truncations and inflated 8-byte fields (a huge length claim).
// Every case must either restore or fail with an error; under PSBOX_SANITIZE
// none may crash or report. Running a restored-but-inconsistent state is out
// of scope here.
TEST(SnapshotFieldCheckTest, MutatedGoldenRestoresOrFailsCleanly) {
  const std::vector<uint8_t> golden = GoldenPayload();
  ASSERT_GT(golden.size(), 8u);
  Rng rng(0x5EED5EED);
  const auto offset = [&rng](size_t size) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  constexpr int kCasesPerKind = 200;
  int restored = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kCasesPerKind; ++i) {
      std::vector<uint8_t> payload = golden;
      size_t at = 0;
      if (kind == 0) {
        at = offset(payload.size());
        payload[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      } else if (kind == 1) {
        at = offset(payload.size());
        payload.resize(at);
      } else {
        at = offset(payload.size() - 7);
        const uint64_t huge = (uint64_t{1} << 62) | rng.NextU64();
        for (size_t b = 0; b < 8; ++b) {
          payload[at + b] = static_cast<uint8_t>(huge >> (8 * b));
        }
      }
      SCOPED_TRACE("kind=" + std::to_string(kind) + " offset=" +
                   std::to_string(at));
      std::string error;
      if (RestoreGoldenBytes(Reseal(payload), &error)) {
        ++restored;
      } else {
        EXPECT_FALSE(error.empty());
      }
    }
  }
  RecordProperty("restored", restored);
  RecordProperty("rejected", 3 * kCasesPerKind - restored);
  // Most mutations land in fields no check can judge (energies, times), and
  // restore; the rest must have been rejected by a field check.
  EXPECT_GT(restored, 0);
  EXPECT_LT(restored, 3 * kCasesPerKind);
}

}  // namespace
}  // namespace psbox
