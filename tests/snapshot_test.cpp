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
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/fleet/root_coordinator.h"
#include "src/popgen/app_catalog.h"
#include "src/psbox/power_events.h"
#include "src/sim/callback_target.h"
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

World MakeWorld(BoardConfig config = {}, KernelConfig kernel = {}) {
  World w;
  config.seed = 0x70B0;
  w.board = std::make_unique<Board>(config);
  w.kernel = std::make_unique<Kernel>(w.board.get(), kernel);
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

// A step trace travels as its steps and the cumulative integral at its
// first one; the load derives the rest with Set's own arithmetic, so every
// CumulativeAt comes back bit for bit — trimmed prefix included.
TEST(BoardSnapshotTest, StepTraceIntegralsRestoreBitIdentical) {
  BoardConfig config;
  config.gps.cold_start = Millis(40);
  KernelConfig kernel;
  kernel.telemetry_retention = Millis(50);
  World original = MakeWorld(config, kernel);
  SpawnApps(original);
  const AppId gps_user = 0;
  original.board->gps().Request(gps_user);
  original.kernel->RunUntil(Millis(560));
  original.board->gps().Release(gps_user);
  original.kernel->RunUntil(Millis(570));
  original.board->gps().Request(gps_user);
  original.kernel->RunUntil(Millis(620));
  const std::vector<uint8_t> cut = SaveShard(original);

  World restored = MakeWorld(config, kernel);
  SnapshotReader r;
  ASSERT_TRUE(r.Open(cut)) << r.error();
  std::string error;
  ASSERT_TRUE(RestoreBoardShard(r, *restored.board, *restored.kernel,
                                *restored.manager,
                                [&restored] { SpawnApps(restored); }, &error))
      << error;

  const auto same_integrals = [](const StepTrace& a, const StepTrace& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const TimeNs t = a.steps()[i].time;
      ASSERT_EQ(t, b.steps()[i].time);
      ASSERT_EQ(a.CumulativeAt(t), b.CumulativeAt(t)) << "step " << i;
    }
  };
  const StepTrace& rail = original.board->RailFor(HwComponent::kCpu).trace();
  ASSERT_GT(rail.trimmed_steps(), 0u);
  ASSERT_GT(rail.CumulativeAt(rail.first_time()), 0.0);
  {
    SCOPED_TRACE("CPU rail");
    same_integrals(rail, restored.board->RailFor(HwComponent::kCpu).trace());
  }
  {
    SCOPED_TRACE("core 0 schedule");
    same_integrals(original.kernel->scheduler().ScheduleTrace(0),
                   restored.kernel->scheduler().ScheduleTrace(0));
  }
  {
    SCOPED_TRACE("GPS revealed power");
    ASSERT_GT(original.board->gps().revealed_trace().size(), 1u);
    same_integrals(original.board->gps().revealed_trace(),
                   restored.board->gps().revealed_trace());
  }
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
        if (sb.anchored(hw) && manager.OwnedAt(box, hw, now)) {
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
// one: per-sub-fleet budget allocations and migration histories, the root
// migration list, and any apps parked between sub-fleets at the cut. Warm
// restart through that format must still reproduce the uninterrupted
// fingerprint, at any thread count.
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

// Budget drains at 270 ms move calib3d from board 0 to board 1 (and
// triangle the other way). With retention off the finished older instance
// stays live on the board it left, so the cut at 500 ms lists it as a
// non-current fleet spawn beside the app's later ones. Restoring re-creates
// it, and every restored board re-saves to the bytes the cut holds for it.
TEST(FleetCheckpointTest, FinishedOlderInstanceRestoresAndResaves) {
  const FleetScenario scenario = CheckpointScenario(0);
  const uint64_t baseline = RootCoordinator(scenario, 2).Run().Fingerprint();
  const std::string path = TempPath("fleet_older_instance.snap");
  RootCoordinator writer(scenario, 2);
  writer.set_checkpoint(path, 50);
  EXPECT_EQ(writer.Run().Fingerprint(), baseline);
  const std::vector<uint8_t> sealed = ReadFileBytes(path);
  ASSERT_GT(sealed.size(), kSnapshotHeaderSize);
  const std::vector<uint8_t> cut(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string error;
    auto restored =
        RootCoordinator::RestoreFromCheckpoint(scenario, threads, path, &error);
    ASSERT_NE(restored, nullptr) << error;
    ASSERT_EQ(restored->resume_time(), Millis(500));
    // Board 0's first app is calib3d's initial instance: finished, not
    // retired.
    Kernel& board0 = restored->kernel(0);
    ASSERT_FALSE(board0.AppRetired(0));
    EXPECT_EQ(board0.AppName(0), "calib3d");
    EXPECT_TRUE(board0.AppFinished(0));
    for (int b = 0; b < restored->board_count(); ++b) {
      SCOPED_TRACE("board " + std::to_string(b));
      Kernel& kernel = restored->kernel(b);
      SnapshotWriter w;
      ASSERT_TRUE(SaveBoardShard(kernel.board(), kernel, restored->manager(b),
                                 &w, &error))
          << error;
      const std::vector<uint8_t> shard = w.Seal();
      const auto body =
          shard.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize);
      EXPECT_TRUE(std::search(cut.begin(), cut.end(), body, shard.end()) !=
                  cut.end());
    }
    EXPECT_EQ(restored->Run().Fingerprint(), baseline);
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
  // A future version, v4 (its dense records predate the live-object layout),
  // v5 (its spawn logs predate the live-app recipes), v6 (its frequency
  // context tables predate the per-principal OPPs), v7 (its event
  // descriptors and pending-event lists predate the engine's section), v8
  // (its sandboxes carry open spans and nesting depths) and v9 (its step
  // traces carry every cumulative integral, its sandboxes direct-metered
  // bases): none may be misparsed.
  for (const uint32_t version :
       {kSnapshotFormatVersion + 1, uint32_t{4}, uint32_t{5}, uint32_t{6},
        uint32_t{7}, uint32_t{8}, uint32_t{9}}) {
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

// --- CRC -------------------------------------------------------------------

using CrcKernel = uint32_t (*)(const uint8_t*, size_t);

// |crc| gives the value of the plain bytewise loop: the standard check
// value, every length 0-320 at 16 alignments (every entry to the folded
// kernel's 64-byte blocks, 16-byte steps and table tail), and a long buffer
// whose length leaves a tail.
void ExpectMatchesBytewise(CrcKernel crc) {
  const std::string check = "123456789";
  EXPECT_EQ(crc(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  const auto bytewise = [](const uint8_t* data, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= data[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(0xC3C3);
  std::vector<uint8_t> buf(320 + 16);
  for (size_t len = 0; len <= 320; ++len) {
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    for (size_t offset = 0; offset < 16; ++offset) {
      SCOPED_TRACE("len=" + std::to_string(len) +
                   " offset=" + std::to_string(offset));
      EXPECT_EQ(crc(buf.data() + offset, len),
                bytewise(buf.data() + offset, len));
    }
  }
  std::vector<uint8_t> big((1 << 20) + 13);
  for (uint8_t& b : big) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  EXPECT_EQ(crc(big.data(), big.size()), bytewise(big.data(), big.size()));
}

// The kernel SnapshotCrc32 picks for this CPU.
TEST(SnapshotCrcTest, MatchesCheckValueAndBytewiseReference) {
  ExpectMatchesBytewise(&SnapshotCrc32);
}

// The slicing-by-8 table, the whole path on CPUs without PCLMULQDQ, stays
// checked on one that has it.
TEST(SnapshotCrcTest, PortableKernelMatchesBytewiseReference) {
  ExpectMatchesBytewise(&SnapshotCrc32Portable);
}

TEST(SnapshotCrcTest, FoldedKernelMatchesBytewiseReference) {
  if (!SnapshotCrc32FoldedSupported()) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ";
  }
  ExpectMatchesBytewise(&SnapshotCrc32Folded);
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

  // Generated population so the golden pins the v3 and v6 blocks too: the
  // population compat block, each board's generator cursor and app
  // recipes, and the nested tenant sandbox state — the checkpoint cuts
  // mid-population.
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
         "/tests/golden/fleet_checkpoint_v10.snap";
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

  const uint64_t baseline =
      RootCoordinator(GoldenScenario(), 2).Run().Fingerprint();
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string error;
    auto restored = RootCoordinator::RestoreFromCheckpoint(
        GoldenScenario(), threads, golden, &error);
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
    // Resuming from the golden must still converge on the uninterrupted
    // run: the golden guards semantic compatibility, not just parseability.
    EXPECT_EQ(restored->Run().Fingerprint(), baseline);
  }
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

// Reads the 8 little-endian bytes at |at|; past the payload's end it fails
// the test and reads 0, so a layout drift cannot index out of bounds.
uint64_t GetU64(const std::vector<uint8_t>& payload, size_t at) {
  if (at > payload.size() || payload.size() - at < 8) {
    ADD_FAILURE() << "8-byte read at offset " << at << " past the "
                  << payload.size() << "-byte payload";
    return 0;
  }
  uint64_t v = 0;
  for (size_t b = 0; b < 8; ++b) {
    v |= static_cast<uint64_t>(payload[at + b]) << (8 * b);
  }
  return v;
}

// Writes |value| little-endian into the 4 bytes at |at|.
void PutU32(std::vector<uint8_t>& payload, size_t at, uint32_t value) {
  for (size_t b = 0; b < 4; ++b) {
    payload[at + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

uint32_t GetU32(const std::vector<uint8_t>& payload, size_t at) {
  return static_cast<uint32_t>(GetU64(payload, at));
}

// Restores the golden payload after |mutate| and expects a refusal whose
// error contains |expected|.
void ExpectMutatedGoldenRejected(
    const std::function<void(std::vector<uint8_t>&)>& mutate,
    const std::string& expected) {
  std::vector<uint8_t> payload = GoldenPayload();
  mutate(payload);
  std::string error;
  EXPECT_FALSE(RestoreGoldenBytes(Reseal(payload), &error));
  EXPECT_NE(error.find(expected), std::string::npos) << "error was: " << error;
}

// v6 per-board restore data. Right past a board's "population" marker lies
// its cursor: the generator's Rng (41 bytes), clock and arrival count; the
// pending arrival (presence flag, time, seq, catalog index, iterations,
// adversarial flag, tenant); the window end and the spawned and retired
// counts. Then the recipe count and the recipes: app id, first task id, a
// kind byte, and the kind's fields — a tenant slot; a fleet spawn's spec
// index, label, iterations and current flag; or an arrival's catalog
// index, seq, iterations, tenant and adversarial flag.
constexpr size_t kCursorClock = 41;
constexpr size_t kCursorPendingWhen = 58;
constexpr size_t kCursorPendingCatalog = 74;
constexpr size_t kCursorBytes = 123;
enum RecipeKind : uint8_t { kTenantRecipe, kFleetRecipe, kArrivalRecipe };
constexpr size_t kArrivalTenant = 24;  // relative to the arrival's fields

struct RecipeBytes {
  size_t at = 0;      // the recipe's app id
  RecipeKind kind = kTenantRecipe;
  size_t fields = 0;  // the kind's first field
};

size_t CursorOf(const std::vector<uint8_t>& payload, int board) {
  size_t at = 0;
  for (int b = 0; b <= board; ++b) {
    at = AfterSection(payload, "population", at);
  }
  return at;
}

std::vector<RecipeBytes> RecipesOf(const std::vector<uint8_t>& payload,
                                   int board) {
  size_t at = CursorOf(payload, board) + kCursorBytes;
  const uint64_t count = GetU64(payload, at);
  at += 8;
  std::vector<RecipeBytes> recipes;
  for (uint64_t i = 0; i < count; ++i) {
    RecipeBytes r;
    r.at = at;
    r.kind = static_cast<RecipeKind>(payload[at + 16]);
    r.fields = at + 17;
    recipes.push_back(r);
    if (r.kind == kTenantRecipe) {
      at = r.fields + 8;
    } else if (r.kind == kArrivalRecipe) {
      at = r.fields + 33;
    } else {
      const size_t label = payload[r.fields + 8] |
                           static_cast<size_t>(payload[r.fields + 9]) << 8;
      at = r.fields + 12 + label + 9;
    }
  }
  return recipes;
}

RecipeBytes FirstOfKind(const std::vector<RecipeBytes>& recipes,
                        RecipeKind kind) {
  const auto it = std::find_if(
      recipes.begin(), recipes.end(),
      [kind](const RecipeBytes& r) { return r.kind == kind; });
  EXPECT_TRUE(it != recipes.end()) << "no recipe of kind " << int{kind};
  return it != recipes.end() ? *it : RecipeBytes{};
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

// --- the engine's section ---------------------------------------------------
// The engine writes its pending records itself and its load puts them back
// under their saved seqs. The engine orders events by (time, seq), so the
// saved seqs must be distinct and below the shard's next seq, or they and
// later schedules would collide; each record must name a registered target,
// one of its kinds and, once every section has loaded, what exists.

// One pending record as the engine's section carries it.
struct RecordBytes {
  uint32_t target = 0;
  uint8_t kind = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  TimeNs when = 0;
  uint64_t seq = 0;
};

// A sealed engine section: clock |now|, no events fired, next seq
// |next_seq|, then |records| in the given order.
std::vector<uint8_t> EngineSection(TimeNs now, uint64_t next_seq,
                                   const std::vector<RecordBytes>& records) {
  SnapshotWriter w;
  w.Section("engine");
  w.I64(now);
  w.U64(0);
  w.U64(next_seq);
  w.U64(records.size());
  for (const RecordBytes& r : records) {
    w.U32(r.target);
    w.U8(r.kind);
    w.U64(r.a);
    w.U64(r.b);
    w.I64(r.when);
    w.U64(r.seq);
  }
  return w.Seal();
}

// Logs the first argument of each record it fires; two kinds, and an
// argument of 13 names nothing.
struct LogTarget final : EventTarget {
  explicit LogTarget(Simulator& sim, uint64_t handles = 0)
      : id(sim.AddTarget(this, {"log", 2, handles})) {}
  void OnEvent(uint8_t /*kind*/, uint64_t a, uint64_t /*b*/) override {
    fired.push_back(a);
  }
  std::string CheckEvent(uint8_t /*kind*/, uint64_t a,
                         uint64_t /*b*/) const override {
    return a == 13 ? "names nothing" : "";
  }
  TargetId id;
  std::vector<uint64_t> fired;
};

// Loads the engine section |sealed| into |sim|; on failure |error| says why.
bool LoadEngine(Simulator& sim, const std::vector<uint8_t>& sealed,
                std::string* error) {
  SnapshotReader r;
  if (r.Open(sealed)) {
    sim.Serialize(r);
  }
  *error = r.error();
  return r.ok();
}

TEST(EngineSnapshotTest, RestoresInOriginalSeqOrder) {
  Simulator sim;
  LogTarget log(sim);
  // What a freshly built board schedules; the load replaces it.
  sim.ScheduleAt(50, log.id, 0, 99);
  // Three events at one time and one earlier, listed out of seq order.
  std::vector<RecordBytes> records;
  for (const auto& [seq, when] : std::vector<std::pair<uint64_t, TimeNs>>{
           {7, 500}, {3, 500}, {9, 400}, {5, 500}}) {
    records.push_back({log.id, 0, seq, 0, when, seq});
  }
  std::string error;
  ASSERT_TRUE(LoadEngine(sim, EngineSection(400, 10, records), &error))
      << error;
  EXPECT_EQ(sim.Now(), 400);
  EXPECT_EQ(sim.next_seq(), 10u);
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.CheckEventArgs(), "");
  // Saving again writes the records in seq order.
  std::sort(records.begin(), records.end(),
            [](const RecordBytes& x, const RecordBytes& y) {
              return x.seq < y.seq;
            });
  SnapshotWriter resaved;
  sim.Serialize(resaved);
  EXPECT_EQ(resaved.Seal(), EngineSection(400, 10, records));
  sim.RunToCompletion();
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{9, 3, 5, 7}));
}

TEST(EngineSnapshotTest, RejectsSeqsOutsideOneTotalOrder) {
  struct Case {
    const char* what;
    std::vector<std::pair<uint64_t, TimeNs>> events;  // (seq, when)
    std::string expected;
  };
  const Case cases[] = {
      {"before the clock", {{3, 100}, {4, 99}},
       "snapshot has a pending event of target 'log' kind 0 before the "
       "shard clock"},
      {"seq 0", {{4, 200}, {0, 100}},
       "snapshot has a pending event of target 'log' kind 0 with seq 0"},
      {"duplicate seq", {{4, 100}, {6, 200}, {4, 300}},
       "snapshot has two pending events with seq 4"},
      {"seq at next seq", {{4, 100}, {10, 200}},
       "pending event of target 'log' kind 0 has seq 10, not below the "
       "shard's next seq 10"},
      {"seq past next seq", {{12, 100}},
       "pending event of target 'log' kind 0 has seq 12, not below the "
       "shard's next seq 10"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Simulator sim;
    LogTarget log(sim);
    std::vector<RecordBytes> records;
    for (const auto& [seq, when] : c.events) {
      records.push_back({log.id, 0, 1, 0, when, seq});
    }
    std::string error;
    EXPECT_FALSE(LoadEngine(sim, EngineSection(100, 10, records), &error));
    EXPECT_EQ(error, c.expected);
  }
}

TEST(EngineSnapshotTest, UnregisteredTargetRejected) {
  Simulator sim;
  LogTarget log(sim);
  std::string error;
  EXPECT_FALSE(LoadEngine(sim, EngineSection(0, 10, {{1, 0, 0, 0, 5, 3}}),
                          &error));
  EXPECT_EQ(error,
            "snapshot has a pending event (seq 3) for target 1, but the board "
            "registers only 1");
}

// A target registered as not checkpointable never has a record saved.
TEST(EngineSnapshotTest, UncheckpointableTargetRejected) {
  Simulator sim;
  CallbackTarget callbacks(&sim);
  std::string error;
  EXPECT_FALSE(LoadEngine(sim, EngineSection(0, 10, {{0, 0, 0, 0, 5, 3}}),
                          &error));
  EXPECT_EQ(error,
            "snapshot has a pending event (seq 3) of target 'callback' kind "
            "0, which a snapshot cannot carry");
}

TEST(EngineSnapshotTest, KindPastTargetCountRejected) {
  Simulator sim;
  LogTarget log(sim);
  std::string error;
  EXPECT_FALSE(LoadEngine(
      sim, EngineSection(0, 10, {{log.id, 2, 0, 0, 5, 3}}), &error));
  EXPECT_EQ(error,
            "snapshot has a pending event (seq 3) of target 'log' kind 2, "
            "past the target's 2 kinds");
}

// Kind 1 is a handle kind: its target keeps one handle per first argument,
// so a second record for the same argument would fire it twice. Kind 0
// records may repeat.
TEST(EngineSnapshotTest, TwoRecordsBehindOneHandleRejected) {
  Simulator sim;
  LogTarget log(sim, /*handles=*/1u << 1);
  std::string error;
  EXPECT_TRUE(LoadEngine(
      sim, EngineSection(0, 10, {{log.id, 0, 4, 0, 5, 3}, {log.id, 0, 4, 0, 6, 4}}),
      &error))
      << error;
  EXPECT_TRUE(LoadEngine(
      sim, EngineSection(0, 10, {{log.id, 1, 4, 0, 5, 3}, {log.id, 1, 5, 0, 6, 4}}),
      &error))
      << error;
  EXPECT_FALSE(LoadEngine(
      sim, EngineSection(0, 10, {{log.id, 1, 4, 0, 5, 3}, {log.id, 1, 4, 0, 6, 4}}),
      &error));
  EXPECT_EQ(error,
            "snapshot has two pending events of target 'log' kind 1 for "
            "argument 4");
}

// The engine loads before the sections whose state a record's arguments
// name, so their check runs once the shard is whole.
TEST(EngineSnapshotTest, ArgumentsCheckedAfterLoad) {
  Simulator sim;
  LogTarget log(sim);
  std::string error;
  ASSERT_TRUE(LoadEngine(
      sim, EngineSection(0, 10, {{log.id, 0, 4, 0, 5, 3}, {log.id, 1, 13, 0, 6, 4}}),
      &error))
      << error;
  EXPECT_EQ(sim.CheckEventArgs(),
            "snapshot pending event of target 'log' kind 1: names nothing");
}

// A board shard's records whose first argument names nothing (a core, task,
// box, app, frame or command that does not exist) are refused, and so are
// those of kinds that take no argument, whose arguments must be 0.
TEST(EngineSnapshotTest, RecordArgumentsNameWhatExists) {
  World original = MakeWorld();
  SpawnApps(original);
  original.kernel->RunUntil(Millis(200));
  const std::vector<uint8_t> sealed = SaveShard(original);
  const std::vector<uint8_t> shard(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
  // Past the "engine" marker: the clock, the fired count, the next seq and
  // the record count, then 37 bytes per record with its first argument at
  // byte 5.
  const size_t engine = AfterSection(shard, "engine");
  const uint64_t count = GetU64(shard, engine + 24);
  ASSERT_GT(count, 3u);
  std::vector<std::string> refusals;
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<uint8_t> payload = shard;
    PutU64(payload, engine + 32 + 37 * i + 5, uint64_t{1} << 40);
    World restored = MakeWorld();
    SnapshotReader r;
    ASSERT_TRUE(r.Open(Reseal(payload))) << r.error();
    std::string error;
    if (!RestoreBoardShard(r, *restored.board, *restored.kernel,
                           *restored.manager,
                           [&restored] { SpawnApps(restored); }, &error)) {
      EXPECT_NE(error.find(": names "), std::string::npos) << error;
      refusals.push_back(error);
    }
  }
  EXPECT_EQ(refusals.size(), count);
  // The cut has a core timer pending, which names its core, and a device
  // timer, which takes no argument.
  EXPECT_TRUE(std::any_of(refusals.begin(), refusals.end(),
                          [](const std::string& e) {
                            return e.find("names 1099511627776 and 0, but "
                                          "takes no arguments") !=
                                   std::string::npos;
                          }));
  EXPECT_TRUE(std::any_of(refusals.begin(), refusals.end(),
                          [](const std::string& e) {
                            return e.find("names core 1099511627776 of 2") !=
                                   std::string::npos;
                          }));
}

// A pending ad-hoc callback holds a closure no snapshot can carry, and a
// power event monitor's evaluation feeds listeners that are callbacks.
TEST(EngineSnapshotTest, SaveRefusedWhileCallbackPending) {
  World w = MakeWorld();
  SpawnApps(w);
  CallbackTarget callbacks(&w.board->sim());
  callbacks.At(Millis(250), [] {});
  w.kernel->RunUntil(Millis(200));
  SnapshotWriter writer;
  std::string error;
  EXPECT_FALSE(
      SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error));
  EXPECT_EQ(error,
            "snapshot refused: an event of target 'callback' is pending, and "
            "a snapshot cannot carry it");
  w.kernel->RunUntil(Millis(300));
  EXPECT_TRUE(SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error))
      << error;

  PowerEventMonitor monitor(
      w.kernel.get(), w.manager.get(),
      w.manager->CreateBox(w.kernel->CreateApp("watched"), {HwComponent::kCpu}));
  EXPECT_FALSE(
      SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error));
  EXPECT_EQ(error,
            "snapshot refused: an event of target 'power event monitor' is "
            "pending, and a snapshot cannot carry it");
  monitor.Stop();  // its next evaluation schedules no other
  w.kernel->RunUntil(Millis(400));
  EXPECT_TRUE(SaveBoardShard(*w.board, *w.kernel, *w.manager, &writer, &error))
      << error;
}

// One seeded bit flipped in each byte of a board shard's engine section, the
// payload resealed: every case restores or fails with an error (never a
// crash or, under PSBOX_SANITIZE, a sanitizer report).
TEST(EngineSnapshotTest, EngineSectionBitFlipsRestoreOrFail) {
  World original = MakeWorld();
  SpawnApps(original);
  original.kernel->RunUntil(Millis(200));
  const std::vector<uint8_t> sealed = SaveShard(original);
  const std::vector<uint8_t> shard(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
  // From the "engine" marker to the "board" marker.
  const size_t begin = AfterSection(shard, "engine") - (3 + 6);
  const size_t end = AfterSection(shard, "board") - (3 + 5);
  ASSERT_LT(begin, end);
  Rng rng(0xF11B);
  int restored_count = 0;
  for (size_t at = begin; at < end; ++at) {
    std::vector<uint8_t> payload = shard;
    payload[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    World restored = MakeWorld();
    SnapshotReader r;
    ASSERT_TRUE(r.Open(Reseal(payload))) << r.error();
    std::string error;
    if (RestoreBoardShard(r, *restored.board, *restored.kernel,
                          *restored.manager,
                          [&restored] { SpawnApps(restored); }, &error)) {
      ++restored_count;
    } else {
      EXPECT_FALSE(error.empty()) << "byte " << at;
    }
  }
  // Flips in the fired count and in record times that stay at or after the
  // clock still restore; the rest are refused.
  EXPECT_GT(restored_count, 0);
  EXPECT_LT(restored_count, static_cast<int>(end - begin));
}

// v8 CPU governor layout, past a board's "governor" marker: the global OPP
// (4 bytes), the box count and each box's id (8 bytes) and OPP (4), the
// running box (8) and the retry count (8). Its timers are the engine's.
struct GovernorBytes {
  size_t global_opp = 0;
  std::vector<size_t> boxes;  // each box's id; its OPP follows
  size_t running = 0;
};

GovernorBytes GovernorOf(const std::vector<uint8_t>& payload, int board) {
  size_t at = 0;
  for (int b = 0; b <= board; ++b) {
    at = AfterSection(payload, "shard", at);
  }
  GovernorBytes g;
  g.global_opp = AfterSection(payload, "governor", at);
  at = g.global_opp + 4;
  const uint64_t boxes = GetU64(payload, at);
  for (at += 8; g.boxes.size() < boxes && at < payload.size(); at += 12) {
    g.boxes.push_back(at);
  }
  g.running = at;
  EXPECT_LT(g.running + 16, payload.size()) << "governor past the payload";
  return g;
}

// A board's engine section, past its "engine" marker: the shard clock, the
// fired count, the next seq, the record count, then each record's target
// (4 bytes), kind (1), two arguments (8 each), time (8) and seq (8).
struct EngineBytes {
  size_t clock = 0;
  uint64_t next_seq = 0;
  std::vector<size_t> records;  // each record's target
};

EngineBytes EngineOf(const std::vector<uint8_t>& payload, int board) {
  size_t at = 0;
  for (int b = 0; b <= board; ++b) {
    at = AfterSection(payload, "shard", at);
  }
  EngineBytes e;
  e.clock = AfterSection(payload, "engine", at);
  e.next_seq = GetU64(payload, e.clock + 16);
  const uint64_t count = GetU64(payload, e.clock + 24);
  for (at = e.clock + 32; e.records.size() < count && at < payload.size();
       at += 37) {
    e.records.push_back(at);
  }
  return e;
}

// Board 0's CPU governor has its sampling tick pending in the golden: a
// record of target 7 (the board's five devices, the kernel and the CPU
// domain register first), kind 0. Restore must refuse its seq set to 0 or
// to the shard's next seq, and another record given the same seq.
TEST(SnapshotFieldCheckTest, PendingEventSeqOutsideTotalOrderRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const EngineBytes engine = EngineOf(golden, 0);
  ASSERT_GE(engine.records.size(), 2u);
  const auto sample = std::find_if(
      engine.records.begin(), engine.records.end(), [&](size_t at) {
        return GetU32(golden, at) == 7 && golden[at + 4] == 0;
      });
  ASSERT_TRUE(sample != engine.records.end()) << "sampling tick pending";
  const size_t sample_seq = *sample + 29;
  const uint64_t seq = GetU64(golden, sample_seq);
  ASSERT_GT(seq, 0u);
  ASSERT_LT(seq, engine.next_seq);
  const size_t other_seq =
      (sample == engine.records.begin() ? engine.records[1]
                                        : engine.records[0]) +
      29;
  const std::string governor = "target 'cpu governor' kind 0";

  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, sample_seq, 0); },
      "snapshot has a pending event of " + governor + " with seq 0");
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, sample_seq, engine.next_seq); },
      "pending event of " + governor + " has seq " +
          std::to_string(engine.next_seq) +
          ", not below the shard's next seq " +
          std::to_string(engine.next_seq));
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, other_seq, seq); },
      "snapshot has two pending events with seq " + std::to_string(seq));
  // The fleet names the board.
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, sample_seq, 0); },
      "checkpoint board 0: snapshot has a pending event of");
}

// --- v6 recipe and cursor checks -------------------------------------------
// Board 0 of the golden lists tenants 0 and 1 (apps 0 and 1), calib3d's
// current instance (app 2), then nine generated apps (5 to 15, first tasks
// 4 to 14) under id counters 16 and 15; the shard clock is 260 ms.

// A catalog index outside AppCatalog(): the restore would index past the
// factory registry, in the recipe pass or at the pending arrival's spawn.
TEST(SnapshotFieldCheckTest, OutOfRangeCatalogIndexRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const RecipeBytes arrival = FirstOfKind(RecipesOf(golden, 0), kArrivalRecipe);
  ASSERT_LT(GetU64(golden, arrival.fields), AppCatalog().size());
  {
    SCOPED_TRACE("listed arrival");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, arrival.fields, 999); },
        "checkpoint board 0 arrival catalog index 999 outside the app catalog");
  }
  {
    SCOPED_TRACE("pending arrival");
    const size_t pending = CursorOf(golden, 0) + kCursorPendingCatalog;
    ASSERT_LT(GetU64(golden, pending), AppCatalog().size());
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, pending, ~uint64_t{0}); },
        "checkpoint board 0 arrival catalog index -1 outside the app catalog");
  }
}

// A tenant slot outside [0, tenants_per_board), on a tenant recipe or on a
// generated app's: tenant boxes are indexed by it.
TEST(SnapshotFieldCheckTest, OutOfRangeTenantRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const std::vector<RecipeBytes> recipes = RecipesOf(golden, 0);
  ASSERT_EQ(recipes[1].kind, kTenantRecipe);
  ASSERT_EQ(GetU64(golden, recipes[1].fields), 1u);
  {
    SCOPED_TRACE("tenant recipe");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, recipes[1].fields, 2); },
        "checkpoint board 0 tenant 2 outside [0, 2)");
  }
  {
    SCOPED_TRACE("generated app");
    const RecipeBytes arrival = FirstOfKind(recipes, kArrivalRecipe);
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) {
          PutU64(p, arrival.fields + kArrivalTenant, 7);
        },
        "checkpoint board 0 arrival tenant 7 outside [0, 2)");
  }
}

// A fleet spawn of a spec the scenario does not have.
TEST(SnapshotFieldCheckTest, OutOfRangeAppSpecRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const RecipeBytes spawn = FirstOfKind(RecipesOf(golden, 0), kFleetRecipe);
  ASSERT_EQ(GetU64(golden, spawn.fields), 0u);
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, spawn.fields, 2); },
      "checkpoint board 0 fleet spawn names app spec 2 outside the scenario's "
      "2 apps");
}

// The current instance of a fleet app on a board the app does not run on:
// the sub-fleet owning the app would look it up in the wrong kernel. Board
// 1's scp instance is turned into one of calib3d, which runs on board 0.
TEST(SnapshotFieldCheckTest, CurrentInstanceOnAnotherBoardRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const RecipeBytes spawn = FirstOfKind(RecipesOf(golden, 1), kFleetRecipe);
  ASSERT_EQ(GetU64(golden, spawn.fields), 1u);
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, spawn.fields, 0); },
      "checkpoint board 1 holds the current instance of fleet app 0, which "
      "runs on board 0");
}

// Two current instances of one fleet app: only one can own its handle. The
// golden has one fleet app per board, so this cuts the three-board scenario
// at 500 ms, where board 0 runs sgemm (spec 5) and, since 270 ms, triangle
// (spec 1); sgemm's instance is turned into a second one of triangle.
TEST(SnapshotFieldCheckTest, TwoCurrentInstancesRejected) {
  const FleetScenario scenario = CheckpointScenario(0);
  const std::string path = TempPath("fleet_two_current.snap");
  RootCoordinator writer(scenario, 1);
  writer.set_checkpoint(path, 50);
  writer.Run();
  const std::vector<uint8_t> sealed = ReadFileBytes(path);
  ASSERT_GT(sealed.size(), kSnapshotHeaderSize);
  std::vector<uint8_t> payload(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
  // The fleet spawn's spec index, label and iterations: 5, "sgemm", ...
  std::vector<uint8_t> spawn(8, 0);
  spawn[0] = 5;
  const std::string label = "sgemm";
  spawn.insert(spawn.end(), {static_cast<uint8_t>(label.size()), 0, 0, 0});
  spawn.insert(spawn.end(), label.begin(), label.end());
  const auto it =
      std::search(payload.begin(), payload.end(), spawn.begin(), spawn.end());
  ASSERT_TRUE(it != payload.end()) << "no sgemm spawn in the cut";
  const auto at = static_cast<size_t>(it - payload.begin());
  ASSERT_EQ(payload[at + spawn.size() + 8], 1) << "sgemm's instance is current";
  PutU64(payload, at, 1);
  std::string error;
  EXPECT_FALSE(RestoreBytes(scenario, Reseal(payload), &error));
  EXPECT_NE(error.find("checkpoint lists two current instances of fleet app 1"),
            std::string::npos)
      << "error was: " << error;
}

// Recipe ids that do not ascend: the recipe pass hands out ids in order.
TEST(SnapshotFieldCheckTest, RecipeIdsOutOfOrderRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const std::vector<RecipeBytes> recipes = RecipesOf(golden, 0);
  ASSERT_EQ(GetU64(golden, recipes[3].at), 5u);
  ASSERT_EQ(GetU64(golden, recipes[4].at), 6u);
  ASSERT_EQ(GetU64(golden, recipes[4].at + 8), 5u);
  {
    SCOPED_TRACE("app id repeats");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, recipes[4].at, 5); },
        "checkpoint board 0 app recipes do not ascend (app 5, first task 5)");
  }
  {
    SCOPED_TRACE("first task id falls");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, recipes[4].at + 8, 3); },
        "checkpoint board 0 app recipes do not ascend (app 6, first task 3)");
  }
}

// A recipe id at or past the kernel's restored id counter: the restored run
// would hand it out a second time.
TEST(SnapshotFieldCheckTest, RecipeIdsPastCountersRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const RecipeBytes last = RecipesOf(golden, 0).back();
  ASSERT_EQ(GetU64(golden, last.at), 15u);
  ASSERT_EQ(GetU64(golden, last.at + 8), 14u);
  {
    SCOPED_TRACE("app id");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, last.at, 16); },
        "snapshot app id counter 16 does not lie past the re-created app ids");
  }
  {
    SCOPED_TRACE("first task id");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, last.at + 8, 15); },
        "snapshot task id counter 15 does not lie past the re-created task "
        "ids");
  }
}

// A population cursor behind the shard clock: the resumed stream would
// schedule arrivals in the past.
TEST(SnapshotFieldCheckTest, PopulationCursorBeforeShardClockRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const size_t cursor = CursorOf(golden, 0);
  ASSERT_GT(GetU64(golden, cursor + kCursorClock), uint64_t{Millis(260)});
  {
    SCOPED_TRACE("generator clock");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, cursor + kCursorClock, 0); },
        "checkpoint board 0 population clock 0 lies before the shard clock "
        "260000000");
  }
  {
    SCOPED_TRACE("pending arrival");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) {
          PutU64(p, cursor + kCursorPendingWhen, 1000);
        },
        "checkpoint board 0 pending arrival at 1000 lies before the shard "
        "clock 260000000");
  }
}

// The recipe pass and the kernel section disagree: the kernel load keeps no
// app the snapshot does not list and invents none it lists.
TEST(SnapshotFieldCheckTest, RecipesDisagreeWithKernelRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  {
    SCOPED_TRACE("created but not listed");
    // Past the kernel marker: the two id counters and the retired count,
    // then the live app count.
    const size_t live = AfterSection(golden, "kernel") + 24;
    ASSERT_EQ(GetU64(golden, live), 12u);
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, live, 11); },
        "restore created app 15 that the snapshot does not list");
  }
  {
    SCOPED_TRACE("listed but not created");
    // Generated app 8 re-created as app 9 (apps 9 and 10 retired).
    const std::vector<RecipeBytes> recipes = RecipesOf(golden, 0);
    ASSERT_EQ(GetU64(golden, recipes[6].at), 8u);
    ASSERT_EQ(GetU64(golden, recipes[7].at), 11u);
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, recipes[6].at, 9); },
        "snapshot lists app 8 that the restored scenario did not create");
  }
}

// A restored step trace past the shard clock, or out of order: the next
// StepTrace::Set on the rail would abort the resumed run.
TEST(SnapshotFieldCheckTest, StepTracePastShardClockRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  // Board 0's CPU rail trace follows the fault injector's section: an empty
  // stream map (8 bytes) and six counters (48 bytes), then the step count
  // and the (time, value) steps.
  const size_t faults = AfterSection(golden, "faults");
  ASSERT_EQ(GetU64(golden, faults), 0u);
  const size_t steps = faults + 56;
  const uint64_t count = GetU64(golden, steps);
  ASSERT_GE(count, 2u);
  const size_t first = steps + 8;
  const size_t last = first + (count - 1) * 16;
  ASSERT_LE(GetU64(golden, last), uint64_t{Millis(260)});
  {
    SCOPED_TRACE("last step past the clock");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU64(p, last, Millis(261)); },
        "snapshot CPU rail step trace ends at 261000000, after the shard "
        "clock 260000000");
  }
  {
    SCOPED_TRACE("repeated step time");
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) {
          PutU64(p, first + 16, GetU64(golden, first));
        },
        "snapshot CPU rail step trace times do not strictly ascend");
  }
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
  ASSERT_EQ(dsp, 42862u);
  ASSERT_LT(dsp + 683, golden.size());
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
  // queued commands) ends with its power state (OPP, busy and wall time),
  // completion count and last-seen time; app 16's lane follows; the
  // in-flight table's one command starts with its id; past the command id
  // counter and the owner's idle stamp, the global power state, then the
  // running app (16, whose balloon holds the DSP).
  const Mutation kMutations[] = {
      {"global OPP", 655, 4, 0, 9,
       "DSP driver global OPP index 9 out of range"},
      {"in-flight command id", 583, 8, 6, 999,
       "DSP driver's in-flight commands are not the ones executing on the "
       "device"},
      {"app 15's lane OPP", 470, 4, 3, 9,
       "DSP driver app 15 OPP index 9 out of range"},
      {"running app", 675, 8, 16, 99,
       "DSP driver runs app 99, which has no OPP"},
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

// Every kind of restored operating point a balloon edge or a governor tick
// would apply: each must be one the device has. Before v7 a CPU box's OPP
// of 9 restored cleanly and then aborted in Run().
TEST(SnapshotFieldCheckTest, OutOfRangeOppRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  // Board 0's governor binds boxes 0, 1, 2 and 14; box 2 runs at OPP 4.
  const GovernorBytes gov = GovernorOf(golden, 0);
  ASSERT_EQ(gov.boxes.size(), 4u);
  const size_t box2 = gov.boxes[2];
  ASSERT_EQ(GetU64(golden, box2), 2u);
  // Board 0's GPU section: past its lifecycle layer, app 6's lane (two
  // queued commands) leads with its OPP at 651; past the other four lanes
  // and the empty in-flight table lies the global power state.
  const size_t gpu =
      AfterSection(golden, "accel_driver", AfterSection(golden, "shard"));
  ASSERT_EQ(GetU64(golden, gpu + 506), 6u);
  struct Mutation {
    const char* field;
    size_t at;
    uint32_t was;  // the golden's value, cross-checked before mutating
    const char* error;
  };
  const Mutation kMutations[] = {
      {"CPU box", box2 + 8, 4, "CPU governor box 2 OPP index 9 out of range"},
      {"CPU global", gov.global_opp, 3,
       "CPU governor global OPP index 9 out of range"},
      {"GPU lane", gpu + 651, 2, "GPU driver app 6 OPP index 9 out of range"},
      {"GPU global", gpu + 1043, 0,
       "GPU driver global OPP index 9 out of range"},
  };
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.field);
    ASSERT_EQ(GetU32(golden, m.at), m.was);
    ExpectMutatedGoldenRejected(
        [&](std::vector<uint8_t>& p) { PutU32(p, m.at, 9); }, m.error);
  }
}

// A CPU governor that runs a box it has no OPP for, or binds other boxes
// than the scheduler's groups.
TEST(SnapshotFieldCheckTest, InconsistentCpuGovernorRejected) {
  const std::vector<uint8_t> golden = GoldenPayload();
  const GovernorBytes gov = GovernorOf(golden, 0);
  ASSERT_EQ(gov.boxes.size(), 4u);
  ASSERT_EQ(GetU64(golden, gov.running), ~uint64_t{0}) << "global running";
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, gov.running, 99); },
      "CPU governor runs box 99, which has no OPP");
  ASSERT_EQ(GetU64(golden, gov.boxes[3]), 14u);
  ExpectMutatedGoldenRejected(
      [&](std::vector<uint8_t>& p) { PutU64(p, gov.boxes[3], 15); },
      "CPU governor boxes do not match the scheduler's groups");
}

// A board shard cut while the storage write-back buffer waits to flush,
// with the storage device's byte counts rewritten. Before these checks a
// negative buffer restored cleanly and then aborted in BeginFlush once the
// run resumed.
TEST(SnapshotFieldCheckTest, ImpossibleStorageWriteBackRejected) {
  const auto spawn = [](World& w) {
    AppOptions opts;
    opts.deadline = Millis(800);
    SpawnPhotoSync(*w.kernel, "photosync", opts);
  };
  World original = MakeWorld();
  spawn(original);
  // At 12 ms the first photo's two halves sit in the buffer, waiting out
  // the coalescing delay before the flush starts.
  original.kernel->RunUntil(Millis(12));
  const StorageDevice& storage = original.board->storage();
  ASSERT_FALSE(storage.channel_busy());
  ASSERT_FALSE(storage.flushing());
  ASSERT_FALSE(storage.Quiescent()) << "no flush start pending";
  ASSERT_GT(storage.buffered_bytes(), 0u);
  const std::vector<uint8_t> sealed = SaveShard(original);
  const std::vector<uint8_t> shard(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
  // The storage device is the board's last device; the power meter (a
  // 41-byte Rng and a drop count) and then the sandbox manager's section
  // follow it. Its fields: the power state (12 bytes), the busy and hung
  // flags, the current command (25 bytes), its dispatch time, the remaining
  // bytes at 47, the channel's update time, the buffered bytes at 63, the
  // flush flag and update time and two counters (96 bytes). The pending
  // flush start is the engine's record.
  const size_t psbox_marker = AfterSection(shard, "psbox") - (3 + 5);
  const size_t at = psbox_marker - 49 - 96;
  const size_t remaining = at + 47;
  const size_t buffer = at + 63;
  ASSERT_EQ(GetU64(shard, at + 4),
            static_cast<uint64_t>(storage.power_state().flush_delay));
  ASSERT_EQ(std::bit_cast<double>(GetU64(shard, buffer)),
            static_cast<double>(storage.buffered_bytes()));

  const auto restore = [&spawn](const std::vector<uint8_t>& payload,
                                std::string* error) {
    World restored = MakeWorld();
    SnapshotReader r;
    if (!r.Open(Reseal(payload))) {
      *error = r.error();
      return false;
    }
    return RestoreBoardShard(r, *restored.board, *restored.kernel,
                             *restored.manager, [&] { spawn(restored); },
                             error);
  };
  std::string error;
  ASSERT_TRUE(restore(shard, &error)) << "unmutated: " << error;

  struct Mutation {
    const char* field;
    size_t at;
    double value;
    const char* error;
  };
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const Mutation kMutations[] = {
      {"negative buffer", buffer, -1.0,
       "storage device write-back buffer of -1.000000 bytes is negative or "
       "not finite"},
      {"NaN buffer", buffer, kNan,
       "storage device write-back buffer of nan bytes is negative or not "
       "finite"},
      {"negative remaining bytes", remaining, -5.0,
       "storage device transfer remaining -5.000000 bytes is negative or not "
       "finite"},
      {"infinite remaining bytes", remaining, kInf,
       "storage device transfer remaining inf bytes is negative or not "
       "finite"},
      {"empty buffer", buffer, 0.0,
       "storage device flush start is pending on an empty write-back "
       "buffer"},
  };
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.field);
    std::vector<uint8_t> payload = shard;
    PutU64(payload, m.at, std::bit_cast<uint64_t>(m.value));
    error.clear();
    EXPECT_FALSE(restore(payload, &error));
    EXPECT_NE(error.find(m.error), std::string::npos) << "error was: " << error;
  }
}

// --- v9: ownership recorded once --------------------------------------------

// A tenant box (box 0, bound to the CPU and the DSP) holding three sandboxed
// children, calib3d and bodytrack on the CPU and sgemm on the DSP, beside a
// plain DSP co-runner. The children's boxes are created by their behaviours
// as they first run; a restore re-creates the apps and the manager the
// boxes, so only the original creates the tenant box.
void SpawnTenantApps(World& w, bool create_tenant_box) {
  const AppId tenant = w.kernel->CreateApp("tenant");
  if (create_tenant_box) {
    w.manager->CreateBox(tenant, {HwComponent::kCpu, HwComponent::kDsp});
  }
  AppOptions child;
  child.use_psbox = true;
  child.psbox_parent = 0;
  child.psbox_budget = 0.2;
  child.deadline = Millis(800);
  SpawnCalib3d(*w.kernel, "calib3d", child);
  SpawnBodytrack(*w.kernel, "bodytrack", child);
  SpawnSgemm(*w.kernel, "sgemm", child);
  AppOptions plain;
  plain.deadline = Millis(800);
  SpawnDgemm(*w.kernel, "dgemm", plain);
}

// Whether |domain|'s balloon is served to a child of the tenant box 0.
bool ServedToChild(const ResourceDomain& domain) {
  return domain.served_since() >= 0 && domain.owner_box() > 0;
}

// Runs the tenant world to the first millisecond at which a child holds a
// served balloon on both the CPU and the DSP, and saves the shard there
// (header stripped).
std::vector<uint8_t> CutTenantWorld(World& w) {
  SpawnTenantApps(w, /*create_tenant_box=*/true);
  while (w.kernel->Now() < Seconds(1) &&
         !(ServedToChild(w.kernel->domain(HwComponent::kCpu)) &&
           ServedToChild(w.kernel->domain(HwComponent::kDsp)))) {
    w.kernel->RunUntil(w.kernel->Now() + kMillisecond);
  }
  EXPECT_LT(w.kernel->Now(), Seconds(1)) << "no cut with both balloons open";
  const std::vector<uint8_t> sealed = SaveShard(w);
  return std::vector<uint8_t>(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());
}

// Restores a tenant-world shard into |restored|.
bool RestoreTenantWorld(const std::vector<uint8_t>& payload, World& restored,
                        std::string* error) {
  SnapshotReader r;
  if (!r.Open(Reseal(payload))) {
    *error = r.error();
    return false;
  }
  return RestoreBoardShard(
      r, *restored.board, *restored.kernel, *restored.manager,
      [&restored] { SpawnTenantApps(restored, /*create_tenant_box=*/false); },
      error);
}

// Bit patterns of every live box's reading: the tenant's composed meter and
// each child's.
std::vector<uint64_t> BoxReadings(World& w) {
  std::vector<uint64_t> bits;
  for (const int box : w.manager->BoxIds()) {
    bits.push_back(std::bit_cast<uint64_t>(w.manager->ReadEnergy(box)));
  }
  return bits;
}

// The cut falls inside a child's open balloon, which since v9 only its
// domain records: the restored tenant and children must read the
// uninterrupted run's bits at the cut and after it.
TEST(BoardSnapshotTest, CutInsideNestedChildBalloonRestoresReadings) {
  World original = MakeWorld();
  const std::vector<uint8_t> cut = CutTenantWorld(original);
  const TimeNs at = original.kernel->Now();
  ASSERT_EQ(original.manager->box_count(), 4u);
  // The open span counts on the child that owns it and on the tenant.
  const ResourceDomain& cpu = original.kernel->domain(HwComponent::kCpu);
  const PsboxId owner = cpu.owner_box();
  ASSERT_EQ(original.manager->sandbox(owner).parent(), 0);
  EXPECT_EQ(original.manager->OpenSince(owner, HwComponent::kCpu),
            cpu.served_since());
  EXPECT_EQ(original.manager->OpenSince(0, HwComponent::kCpu),
            cpu.served_since());

  World restored = MakeWorld();
  std::string error;
  ASSERT_TRUE(RestoreTenantWorld(cut, restored, &error)) << error;
  EXPECT_EQ(BoxReadings(restored), BoxReadings(original));
  EXPECT_EQ(restored.manager->OpenSince(owner, HwComponent::kCpu),
            cpu.served_since());

  original.kernel->RunUntil(at + Millis(150));
  restored.kernel->RunUntil(at + Millis(150));
  EXPECT_EQ(BoxReadings(restored), BoxReadings(original));
  EXPECT_EQ(SaveShard(restored), SaveShard(original));
}

// Offset of a domain's lifecycle fields in a shard: the "domain" section
// past the first |policy| marker at or after |from| (the CPU's follows the
// "scheduler" marker, the DSP's the second "accel_driver" one). Past the
// marker: the phase byte, the owner app, the owner box, the request time,
// the drain start and the serve instant.
struct DomainBytes {
  size_t phase, owner, box, start, drain, served;
};
DomainBytes DomainOf(const std::vector<uint8_t>& shard, const char* policy,
                     size_t from = 0) {
  const size_t at =
      AfterSection(shard, "domain", AfterSection(shard, policy, from));
  return {at, at + 1, at + 9, at + 17, at + 25, at + 33};
}

DomainBytes DspDomainOf(const std::vector<uint8_t>& shard) {
  return DomainOf(shard, "accel_driver", AfterSection(shard, "accel_driver"));
}

// Restores the tenant-world cut after |mutate| and expects a refusal whose
// error contains |expected|.
void ExpectTenantCutRejected(
    const std::vector<uint8_t>& cut,
    const std::function<void(std::vector<uint8_t>&)>& mutate,
    const std::string& expected) {
  std::vector<uint8_t> payload = cut;
  mutate(payload);
  World restored = MakeWorld();
  std::string error;
  EXPECT_FALSE(RestoreTenantWorld(payload, restored, &error));
  EXPECT_NE(error.find(expected), std::string::npos) << "error was: " << error;
}

class OwnershipRecordTest : public testing::Test {
 protected:
  void SetUp() override {
    World original = MakeWorld();
    cut_ = CutTenantWorld(original);
    now_ = original.kernel->Now();
    const ResourceDomain& dsp = original.kernel->domain(HwComponent::kDsp);
    dsp_box_ = dsp.owner_box();
    dsp_app_ = dsp.balloon_owner();
    cpu_box_ = original.kernel->domain(HwComponent::kCpu).owner_box();
    World restored = MakeWorld();
    std::string error;
    ASSERT_TRUE(RestoreTenantWorld(cut_, restored, &error))
        << "unmutated: " << error;
    const DomainBytes d = DspDomainOf(cut_);
    ASSERT_EQ(GetU64(cut_, d.box), static_cast<uint64_t>(dsp_box_));
    ASSERT_EQ(GetU64(cut_, d.served),
              static_cast<uint64_t>(dsp.served_since()));
  }

  std::vector<uint8_t> cut_;
  TimeNs now_ = 0;
  PsboxId dsp_box_ = kNoPsbox;
  AppId dsp_app_ = kNoApp;
  PsboxId cpu_box_ = kNoPsbox;
};

// A served balloon whose box the manager does not have: before v9 the
// balloon-out named it and aborted the resumed run.
TEST_F(OwnershipRecordTest, BalloonOfUnknownBoxRejected) {
  ExpectTenantCutRejected(
      cut_, [](std::vector<uint8_t>& p) { PutU64(p, DspDomainOf(p).box, 99); },
      "DSP domain's balloon names box 99, which does not exist");
}

// A served DSP balloon naming calib3d's box, which is bound to the CPU only.
TEST_F(OwnershipRecordTest, BalloonOfUnboundBoxRejected) {
  ASSERT_NE(cpu_box_, dsp_box_);
  ExpectTenantCutRejected(
      cut_,
      [this](std::vector<uint8_t>& p) {
        PutU64(p, DspDomainOf(p).box, static_cast<uint64_t>(cpu_box_));
      },
      "DSP domain's balloon names box " + std::to_string(cpu_box_) +
          ", which is not bound to the DSP");
}

// A served DSP balloon naming the tenant's box: bound to the DSP, but the
// tenant app's, not the owner's.
TEST_F(OwnershipRecordTest, BalloonOfAnotherAppsBoxRejected) {
  ExpectTenantCutRejected(
      cut_, [](std::vector<uint8_t>& p) { PutU64(p, DspDomainOf(p).box, 0); },
      "DSP domain's balloon names box 0, which belongs to app 0, not the "
      "owner app " + std::to_string(dsp_app_));
}

TEST_F(OwnershipRecordTest, ServeInstantPastShardClockRejected) {
  const TimeNs past = now_ + 1;
  ExpectTenantCutRejected(
      cut_,
      [past](std::vector<uint8_t>& p) {
        PutU64(p, DspDomainOf(p).served, static_cast<uint64_t>(past));
      },
      "DSP domain's serve instant " + std::to_string(past) +
          " lies past the shard clock " + std::to_string(now_));
}

TEST_F(OwnershipRecordTest, ServeInstantBeforeRequestRejected) {
  const DomainBytes d = DspDomainOf(cut_);
  const auto early = static_cast<TimeNs>(GetU64(cut_, d.start)) - 1;
  ExpectTenantCutRejected(
      cut_,
      [early](std::vector<uint8_t>& p) {
        PutU64(p, DspDomainOf(p).served, static_cast<uint64_t>(early));
      },
      "DSP domain's serve instant " + std::to_string(early) +
          " precedes the balloon request");
}

// The CPU domain idle while a core still holds the coscheduling period: the
// v8 class where the scheduler's balloon reference and a core disagreed.
TEST_F(OwnershipRecordTest, CoreBalloonNotTheDomainsRejected) {
  ExpectTenantCutRejected(
      cut_,
      [](std::vector<uint8_t>& p) {
        const DomainBytes d = DomainOf(p, "scheduler");
        p[d.phase] = 0;
        PutU64(p, d.owner, ~uint64_t{0});
        PutU64(p, d.box, ~uint64_t{0});
        PutU64(p, d.served, ~uint64_t{0});
      },
      "holds the balloon of box " + std::to_string(cpu_box_) +
          ", which is not the domain's balloon");
}

// The rest of what v9 refuses: a CPU balloon with no armed group of its
// owner app or in an owner drain, and lifecycle fields that contradict each
// other.
TEST_F(OwnershipRecordTest, InconsistentBalloonRecordRejected) {
  struct Mutation {
    const char* field;
    const char* policy;
    size_t DomainBytes::*at;
    size_t width;
    uint64_t value;
    std::string error;
  };
  const Mutation kMutations[] = {
      {"CPU owner app", "scheduler", &DomainBytes::owner, 8, 99,
       "CPU domain's balloon names box " + std::to_string(cpu_box_) +
           ", which has no armed group of its owner app 99"},
      {"CPU phase", "scheduler", &DomainBytes::phase, 1, 3,
       "CPU domain's balloon is in an owner drain"},
      {"DSP phase idle", nullptr, &DomainBytes::phase, 1, 0,
       "DSP domain names an owner with no balloon"},
      {"DSP owner app", nullptr, &DomainBytes::owner, 8, ~uint64_t{0},
       "DSP domain has a balloon with no owner app"},
      {"DSP serve instant", nullptr, &DomainBytes::served, 8, ~uint64_t{0},
       "DSP domain serves a balloon with no serve instant"},
      {"DSP phase drain-others", nullptr, &DomainBytes::phase, 1, 1,
       "DSP domain has a serve instant with no served balloon"},
  };
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.field);
    ExpectTenantCutRejected(
        cut_,
        [&m](std::vector<uint8_t>& p) {
          const DomainBytes d =
              m.policy != nullptr ? DomainOf(p, m.policy) : DspDomainOf(p);
          for (size_t b = 0; b < m.width; ++b) {
            p[d.*m.at + b] = static_cast<uint8_t>(m.value >> (8 * b));
          }
        },
        m.error);
  }
}

// --- restore by recipe ------------------------------------------------------

// Fleet factory calls made through Counted<> since the last reset.
int g_factory_calls = 0;

template <AppFactory kFactory>
AppHandle Counted(Kernel& kernel, const std::string& name, AppOptions opts) {
  ++g_factory_calls;
  return kFactory(kernel, name, opts);
}

// Restore calls a factory once per live app, never once per app ever
// spawned. The three-board scenario with 50 ms retention and a population:
// by the cut at 730 ms budget drains and a crash have spawned fleet
// instances that have since retired, and most generated apps have come and
// gone. The cast's factories count their calls; each restored board's
// generated apps must be exactly the ones its recipes list.
TEST(RestoreByRecipeTest, OneFactoryCallPerLiveApp) {
  FleetScenario scenario = CheckpointScenario(Millis(50));
  const std::pair<AppFactory, AppFactory> kCounted[] = {
      {&SpawnCalib3d, &Counted<&SpawnCalib3d>},
      {&SpawnTriangle, &Counted<&SpawnTriangle>},
      {&SpawnBodytrack, &Counted<&SpawnBodytrack>},
      {&SpawnScp, &Counted<&SpawnScp>},
      {&SpawnMediaScan, &Counted<&SpawnMediaScan>},
      {&SpawnSgemm, &Counted<&SpawnSgemm>},
  };
  for (FleetAppSpec& spec : scenario.apps) {
    for (const auto& [plain, counted] : kCounted) {
      if (spec.factory == plain) {
        spec.factory = counted;
      }
    }
  }
  scenario.population.seed = 0x90D5;
  scenario.population.base_rate_hz = 40.0;
  scenario.population.diurnal_amplitude = 0.5;
  scenario.population.tenants_per_board = 2;
  scenario.population.tenant_budget = 0.5;
  scenario.population.child_budget = 0.05;

  const TimeNs cut = Millis(730);
  const FleetStats baseline = RootCoordinator(scenario, 1).Run();
  // One factory call per initial spawn and per hand-off before the cut.
  const auto spawns_before_cut = static_cast<int>(
      scenario.apps.size() +
      std::count_if(baseline.migrations.begin(), baseline.migrations.end(),
                    [cut](const MigrationRecord& m) { return m.when < cut; }));

  const std::string path = TempPath("fleet_recipes.snap");
  RootCoordinator writer(scenario, 1);
  writer.set_checkpoint(path, 73);
  writer.Run();
  const std::vector<uint8_t> sealed = ReadFileBytes(path);
  ASSERT_GT(sealed.size(), kSnapshotHeaderSize);
  const std::vector<uint8_t> payload(
      sealed.begin() + static_cast<ptrdiff_t>(kSnapshotHeaderSize),
      sealed.end());

  g_factory_calls = 0;
  std::string error;
  auto restored =
      RootCoordinator::RestoreFromCheckpoint(scenario, 1, path, &error);
  ASSERT_NE(restored, nullptr) << error;
  ASSERT_EQ(restored->resume_time(), cut);
  const int restore_calls = g_factory_calls;

  int fleet_recipes = 0;
  uint64_t spawned = 0;
  size_t live = 0;
  for (int b = 0; b < restored->board_count(); ++b) {
    SCOPED_TRACE("board " + std::to_string(b));
    std::vector<AppId> listed;
    for (const RecipeBytes& r : RecipesOf(payload, b)) {
      if (r.kind == kFleetRecipe) {
        ++fleet_recipes;
      } else if (r.kind == kArrivalRecipe) {
        listed.push_back(static_cast<AppId>(GetU64(payload, r.at)));
      }
    }
    const BoardPopulation& population = *restored->population(b);
    std::vector<AppId> held;
    for (const BoardPopulation::LiveArrival& a : population.live_arrivals()) {
      held.push_back(a.app);
    }
    EXPECT_EQ(held, listed);
    spawned += population.spawned();
    live += held.size();
  }
  RecordProperty("restore_factory_calls", restore_calls);
  RecordProperty("fleet_spawns_before_cut", spawns_before_cut);
  RecordProperty("generated_live", static_cast<int>(live));
  RecordProperty("generated_spawned", static_cast<int>(spawned));
  EXPECT_EQ(restore_calls, fleet_recipes);
  EXPECT_LT(restore_calls, spawns_before_cut)
      << "the cut must cover a retired fleet instance";
  EXPECT_LT(live, spawned) << "the cut must cover retired generated apps";
  EXPECT_EQ(restored->Run().Fingerprint(), baseline.Fingerprint());
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
