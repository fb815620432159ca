// Deterministic fault injection and the kernel recovery paths it exercises:
// command and drain watchdogs, device reset + bounded requeue, retransmission
// with capped backoff, balloon drain aborts, and virtual-meter degradation to
// model-based estimation during DAQ dropouts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/fault_injector.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"
#include "src/workloads/table5_apps.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

// --- fault injector determinism -----------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.accel_hang_prob = 0.3;
  plan.wifi_tx_loss_prob = 0.4;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ShouldHangCommand("gpu"), b.ShouldHangCommand("gpu"));
    EXPECT_EQ(a.ShouldDropTxFrame(Millis(i)), b.ShouldDropTxFrame(Millis(i)));
  }
}

TEST(FaultInjectorTest, ScopesAreIndependentStreams) {
  // Interleaving draws on one scope never perturbs another scope's sequence.
  FaultPlan plan;
  plan.seed = 7;
  plan.accel_hang_prob = 0.5;
  FaultInjector a(plan);
  FaultInjector b(plan);
  std::vector<bool> seq_a;
  std::vector<bool> seq_b;
  for (int i = 0; i < 100; ++i) {
    seq_a.push_back(a.ShouldHangCommand("gpu"));
  }
  for (int i = 0; i < 100; ++i) {
    (void)b.ShouldHangCommand("dsp");
    seq_b.push_back(b.ShouldHangCommand("gpu"));
  }
  EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultInjectorTest, MeterWindowsAreNormalised) {
  FaultPlan plan;
  plan.meter_dropout = {{Millis(30), Millis(40)},
                        {Millis(10), Millis(25)},
                        {Millis(20), Millis(32)}};
  FaultInjector inj(plan);
  ASSERT_EQ(inj.meter_dropouts().size(), 1u);  // merged to [10, 40)
  EXPECT_TRUE(inj.MeterDroppedAt(Millis(15)));
  EXPECT_FALSE(inj.MeterDroppedAt(Millis(45)));
  EXPECT_EQ(inj.MeterDroppedWithin(0, Millis(100)), Millis(30));
}

TEST(FaultInjectorTest, DefaultPlanInjectsNothing) {
  FaultInjector inj(FaultPlan{});
  EXPECT_FALSE(inj.plan().Any());
  EXPECT_FALSE(inj.ShouldHangCommand("gpu"));
  EXPECT_EQ(inj.CommandLatencyFactor("gpu"), 1.0);
  EXPECT_FALSE(inj.ShouldDropTxFrame(Millis(5)));
  EXPECT_FALSE(inj.ShouldFailFreqTransition("cpu"));
  EXPECT_EQ(inj.stats().Total(), 0u);
}

// --- kernel recovery paths ----------------------------------------------

struct AccelApp {
  AppId app;
  Task* task;
};

AccelApp SpawnOffloader(TestStack& s, const std::string& name, HwComponent hw,
                        DurationNs work) {
  const AppId app = s.kernel.CreateApp(name);
  Task* task = s.kernel.SpawnTask(
      app, name,
      std::make_unique<FnBehavior>([hw, work, phase = 0](TaskEnv&) mutable {
        return (phase++ % 2 == 0) ? Action::SubmitAccel(hw, 1, work, 0.6)
                                  : Action::WaitAccel(1);
      }));
  return {app, task};
}

Task* SpawnSender(TestStack& s, const std::string& name, int packets,
                  size_t bytes) {
  const AppId app = s.kernel.CreateApp(name);
  return s.kernel.SpawnTask(
      app, name,
      std::make_unique<FnBehavior>(
          [packets, bytes, phase = 0](TaskEnv&) mutable {
            if (phase >= 2 * packets) {
              return Action::Exit();
            }
            const bool send = phase % 2 == 0;
            ++phase;
            return send ? Action::Send(bytes) : Action::WaitNet();
          }));
}

TEST(FaultRecoveryTest, AccelHangRecoversViaResetAndRetry) {
  BoardConfig bc;
  bc.faults.accel_hang_prob = 0.25;
  TestStack s(bc);
  AccelApp a = SpawnOffloader(s, "a", HwComponent::kGpu, 2 * kMillisecond);
  s.kernel.RunUntil(Seconds(2));
  const auto& st = s.kernel.gpu_driver().stats();
  EXPECT_GT(st.watchdog_fires, 0u);
  EXPECT_GT(st.device_resets, 0u);
  EXPECT_GT(st.command_retries, 0u);
  EXPECT_GT(s.board.gpu().resets(), 0u);
  EXPECT_GT(s.board.gpu().hung_commands(), 0u);
  // Forward progress despite the hangs.
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(a.app), 10u);
}

TEST(FaultRecoveryTest, CommandFailsAfterRetryBudget) {
  BoardConfig bc;
  bc.faults.accel_hang_prob = 1.0;  // every dispatch wedges the engine
  KernelConfig kc;
  kc.gpu_driver.command_timeout_base = 20 * kMillisecond;
  kc.gpu_driver.command_timeout_work_factor = 5.0;
  kc.gpu_driver.max_command_retries = 2;
  TestStack s(bc, kc);
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::SubmitAccel(HwComponent::kGpu, 1, kMillisecond, 0.5),
          Action::WaitAccel(1), Action::Compute(kMillisecond)}));
  s.kernel.RunUntil(Millis(500));
  // The command can never complete; after the retry budget the driver drops
  // it and delivers a failure completion, so the waiter still unblocks.
  EXPECT_EQ(t->state(), TaskState::kExited);
  const auto& st = s.kernel.gpu_driver().stats();
  EXPECT_EQ(st.commands_failed, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.command_retries, 2u);
  EXPECT_EQ(st.device_resets, st.watchdog_fires);
}

TEST(FaultRecoveryTest, DrainTimeoutAbortsBalloon) {
  BoardConfig bc;
  bc.faults.accel_hang_prob = 0.5;
  KernelConfig kc;
  // Make drains give up well before the per-command watchdog would.
  kc.gpu_driver.drain_timeout = 30 * kMillisecond;
  kc.gpu_driver.command_timeout_base = 100 * kMillisecond;
  TestStack s(bc, kc);
  AccelApp boxed = SpawnOffloader(s, "boxed", HwComponent::kGpu, 3 * kMillisecond);
  AccelApp other = SpawnOffloader(s, "other", HwComponent::kGpu, 3 * kMillisecond);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(2));
  EXPECT_GT(s.kernel.gpu_driver().domain_stats().aborted, 0u);
  // Aborts unwind to fair scheduling: both apps keep completing.
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(boxed.app), 0u);
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(other.app), 0u);
  // Every ownership interval the sandbox saw is well-formed and closed.
  for (const auto& iv : s.manager.sandbox(box).owned(HwComponent::kGpu).intervals()) {
    EXPECT_LT(iv.begin, iv.end);
  }
}

TEST(FaultRecoveryTest, WifiLossRetransmitsUntilDelivered) {
  BoardConfig bc;
  bc.faults.wifi_tx_loss_prob = 0.4;
  TestStack s(bc);
  Task* t = SpawnSender(s, "sender", /*packets=*/20, /*bytes=*/2048);
  s.kernel.RunUntil(Seconds(2));
  EXPECT_EQ(t->state(), TaskState::kExited);
  const auto& st = s.kernel.net().stats();
  EXPECT_GT(st.tx_retransmits, 0u);
  EXPECT_GT(s.kernel.net().BytesDelivered(t->app()), 0u);
  EXPECT_GT(s.board.wifi().frames_lost(), 0u);
}

TEST(FaultRecoveryTest, LinkFlapDeliversSocketError) {
  BoardConfig bc;
  bc.faults.wifi_link_down = {{0, Millis(400)}};  // link dark for 400 ms
  KernelConfig kc;
  kc.net.max_tx_retries = 3;
  kc.net.retransmit_backoff_cap = 8 * kMillisecond;
  TestStack s(bc, kc);
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Send(4096), Action::WaitNet(), Action::Compute(kMillisecond)}));
  s.kernel.RunUntil(Millis(300));
  // Every attempt fell inside the link-down window: the retry budget runs
  // out and the error unblocks the waiter.
  EXPECT_EQ(t->state(), TaskState::kExited);
  const auto& st = s.kernel.net().stats();
  EXPECT_EQ(st.tx_failed, 1u);
  EXPECT_EQ(st.socket_errors, 1u);
  EXPECT_EQ(st.tx_retransmits, 3u);
  EXPECT_EQ(s.kernel.net().SocketErrors(app), 1u);
  EXPECT_EQ(s.kernel.net().BytesDelivered(app), 0u);
}

TEST(FaultRecoveryTest, FreqTransitionFailureRetriesAndStaysPut) {
  BoardConfig bc;
  bc.faults.freq_fail_prob = 1.0;  // the regulator never cooperates
  TestStack s(bc);
  Task* t = s.SpawnBusy("busy");
  s.kernel.RunUntil(Millis(500));
  EXPECT_GT(s.board.cpu().failed_transitions(), 0u);
  EXPECT_GT(s.kernel.governor().transition_retries(), 0u);
  // The cluster is stuck at its initial operating point, but keeps running.
  EXPECT_EQ(s.board.cpu().opp_index(), 0);
  EXPECT_GT(t->total_cpu_time, 100 * kMillisecond);
}

TEST(FaultRecoveryTest, MeterDropoutDegradesToEstimation) {
  BoardConfig bc;
  bc.faults.meter_dropout = {{Millis(50), Millis(150)}};
  TestStack s(bc);
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(400));
  const PowerSandbox::EnergyDetail d = s.manager.ReadEnergyDetail(box);
  EXPECT_GT(d.measured_time, 0);
  EXPECT_GT(d.estimated_time, 0);
  EXPECT_GT(d.estimated, 0.0);
  const double frac = s.manager.EstimatedEnergyFraction(box);
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);
  // ReadEnergy reports exactly the degraded total.
  EXPECT_NEAR(s.manager.ReadEnergy(box), d.total(), 1e-9);
  // Documented error bound (DESIGN.md): the estimate substitutes the average
  // measured balloon power for the dark spans, so the total stays within the
  // rail's power variation scaled by the estimated fraction — well under 20%
  // here for a steady busy load.
  const Joules truth =
      s.manager.sandbox(box)
          .ObservedEnergyDetail(
              HwComponent::kCpu,
              MeterSource::OfRail(s.board.cpu_rail(),
                                  s.manager.OpenSince(box, HwComponent::kCpu),
                                  nullptr),
              s.kernel.Now())
          .measured;
  ASSERT_GT(truth, 0.0);
  EXPECT_NEAR(d.total(), truth, 0.2 * truth);
  // Samples inside the dropout window are synthesised and tagged.
  std::vector<PowerSample> buf;
  s.manager.Sample(box, &buf, 1u << 20);
  size_t estimated_samples = 0;
  for (const PowerSample& ps : buf) {
    if (ps.estimated) {
      ++estimated_samples;
      EXPECT_GE(ps.timestamp, Millis(50));
      EXPECT_LT(ps.timestamp, Millis(150));
    }
  }
  EXPECT_GT(estimated_samples, 0u);
}

// The ISSUE acceptance scenario: accelerator hangs, WiFi loss and meter
// dropouts injected simultaneously. The run must terminate, be bit-identical
// across same-seed executions, show nonzero recovery counters, and keep
// per-box accounting within the documented bound.
struct RunFingerprint {
  std::vector<double> values;
  bool operator==(const RunFingerprint& other) const {
    return values == other.values;
  }
};

RunFingerprint RunCombinedFaultScenario() {
  BoardConfig bc;
  bc.faults.seed = 0xC0FFEE;
  bc.faults.accel_hang_prob = 0.3;
  bc.faults.accel_latency_prob = 0.2;
  bc.faults.wifi_tx_loss_prob = 0.3;
  bc.faults.wifi_link_down = {{Millis(300), Millis(450)}};
  bc.faults.meter_dropout = {{Millis(100), Millis(250)}, {Millis(600), Millis(700)}};
  bc.faults.freq_fail_prob = 0.2;
  KernelConfig kc;
  kc.gpu_driver.command_timeout_base = 40 * kMillisecond;
  kc.gpu_driver.drain_timeout = 60 * kMillisecond;
  TestStack s(bc, kc);

  AccelApp boxed = SpawnOffloader(s, "boxed", HwComponent::kGpu, 3 * kMillisecond);
  AccelApp other = SpawnOffloader(s, "other", HwComponent::kGpu, 3 * kMillisecond);
  Task* sender = SpawnSender(s, "sender", /*packets=*/40, /*bytes=*/2048);
  Task* busy = s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kGpu});
  s.manager.EnterBox(box);

  s.kernel.RunUntil(Seconds(1));  // (a) terminates

  const auto& gst = s.kernel.gpu_driver().stats();
  const auto& nst = s.kernel.net().stats();
  const auto& ist = s.board.fault_injector().stats();
  const PowerSandbox::EnergyDetail d = s.manager.ReadEnergyDetail(box);

  // (c) nonzero watchdog / retry / abort counters.
  EXPECT_GT(gst.watchdog_fires, 0u);
  EXPECT_GT(gst.device_resets, 0u);
  EXPECT_GT(gst.command_retries, 0u);
  EXPECT_GT(nst.tx_retransmits, 0u);
  EXPECT_GT(ist.accel_hangs, 0u);
  EXPECT_GT(ist.wifi_frames_dropped, 0u);
  // Recovery keeps everything moving.
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(boxed.app), 0u);
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(other.app), 0u);
  EXPECT_GT(s.kernel.net().BytesDelivered(sender->app()), 0u);
  EXPECT_GT(busy->total_cpu_time, 0);

  // (d) per-box accounting: the degraded reading matches ReadEnergy exactly
  // and stays within the documented bound of the noise-free ground truth.
  const Joules reported = s.manager.ReadEnergy(box);
  EXPECT_NEAR(reported, d.total(), 1e-9);
  const Joules truth =
      s.manager.sandbox(box)
          .ObservedEnergyDetail(
              HwComponent::kGpu,
              MeterSource::OfRail(s.board.gpu_rail(),
                                  s.manager.OpenSince(box, HwComponent::kGpu),
                                  nullptr),
              s.kernel.Now())
          .measured;
  EXPECT_GT(truth, 0.0);
  EXPECT_NEAR(reported, truth, 0.25 * truth + 1e-3);

  // The DAQ itself also shows the gap.
  const auto daq = s.board.meter().SampleRail(s.board.gpu_rail(), 0, Seconds(1));
  EXPECT_GT(s.board.meter().samples_dropped(), 0u);

  RunFingerprint fp;
  auto put = [&fp](double v) { fp.values.push_back(v); };
  put(static_cast<double>(gst.watchdog_fires));
  put(static_cast<double>(gst.device_resets));
  put(static_cast<double>(gst.command_retries));
  put(static_cast<double>(gst.commands_failed));
  put(static_cast<double>(s.kernel.gpu_driver().domain_stats().aborted));
  put(static_cast<double>(gst.completed));
  put(static_cast<double>(gst.submitted));
  put(static_cast<double>(nst.tx_frames));
  put(static_cast<double>(nst.tx_retransmits));
  put(static_cast<double>(nst.tx_failed));
  put(static_cast<double>(nst.socket_errors));
  put(static_cast<double>(ist.accel_hangs));
  put(static_cast<double>(ist.accel_latency_spikes));
  put(static_cast<double>(ist.wifi_frames_dropped));
  put(static_cast<double>(ist.freq_transition_fails));
  put(static_cast<double>(s.board.cpu().failed_transitions()));
  put(static_cast<double>(s.kernel.governor().transition_retries()));
  put(static_cast<double>(s.kernel.gpu_driver().CompletedFor(boxed.app)));
  put(static_cast<double>(s.kernel.gpu_driver().CompletedFor(other.app)));
  put(static_cast<double>(s.kernel.net().BytesDelivered(sender->app())));
  put(static_cast<double>(busy->total_cpu_time));
  put(static_cast<double>(daq.size()));
  put(d.measured);
  put(d.estimated);
  put(static_cast<double>(d.measured_time));
  put(static_cast<double>(d.estimated_time));
  put(reported);
  put(truth);
  return fp;
}

TEST(FaultRecoveryTest, CombinedFaultsAreDeterministicAndRecoverable) {
  const RunFingerprint first = RunCombinedFaultScenario();
  const RunFingerprint second = RunCombinedFaultScenario();
  // (b) bit-identical across two same-seed executions.
  ASSERT_EQ(first.values.size(), second.values.size());
  for (size_t i = 0; i < first.values.size(); ++i) {
    EXPECT_EQ(first.values[i], second.values[i]) << "fingerprint slot " << i;
  }
}

// Pins every driver recovery path to recorded bytes. The fleet fingerprints
// and the checkpoint golden all run without faults, so they cannot see a
// change to the GPU, DSP, storage or NIC recovery code; this board runs
// every such branch, and the shards it saves carry the drivers' queues,
// in-flight tables, watchdogs and counters. A mismatch means recovery now
// decides differently.
TEST(FaultRecoveryTest, RecoveryPathsMatchRecordedShard) {
  BoardConfig bc;
  bc.faults.seed = 0xD21E;
  bc.faults.accel_hang_prob = 0.3;
  bc.faults.accel_latency_prob = 0.2;
  bc.faults.storage_hang_prob = 0.3;
  bc.faults.wifi_tx_loss_prob = 0.3;
  bc.faults.wifi_link_down = {{Millis(300), Millis(450)}};
  KernelConfig kc;
  kc.gpu_driver.drain_timeout = 30 * kMillisecond;
  kc.gpu_driver.command_timeout_base = 40 * kMillisecond;
  kc.gpu_driver.max_command_retries = 1;
  kc.dsp_driver.drain_timeout = 60 * kMillisecond;
  kc.storage_driver.command_timeout = 50 * kMillisecond;
  kc.storage_driver.drain_timeout = 30 * kMillisecond;
  kc.storage_driver.max_command_retries = 1;
  kc.net.max_tx_retries = 2;
  TestStack s(bc, kc);
  // One sandboxed app and one plain co-runner per balloon domain.
  AppOptions boxed;
  boxed.use_psbox = true;
  boxed.deadline = Millis(1500);
  AppOptions plain;
  plain.deadline = Millis(1500);
  SpawnTriangle(s.kernel, "triangle", boxed);
  SpawnCube(s.kernel, "cube", plain);
  SpawnSgemm(s.kernel, "sgemm", boxed);
  SpawnDgemm(s.kernel, "dgemm", plain);
  SpawnMediaScan(s.kernel, "media-scan", boxed);
  SpawnPhotoSync(s.kernel, "photo-sync", plain);
  SpawnScp(s.kernel, "scp", boxed);
  SpawnWget(s.kernel, "wget", plain);

  struct Cut {
    TimeNs at;
    size_t bytes;
    uint32_t crc;
  };
  const Cut kRecorded[] = {{Millis(400), 22725, 0x30069e84},
                           {Millis(1000), 46130, 0x703f1612},
                           {Millis(1600), 62641, 0x34fffb05}};
  for (const Cut& cut : kRecorded) {
    SCOPED_TRACE("cut at " + std::to_string(cut.at / kMillisecond) + " ms");
    s.kernel.RunUntil(cut.at);
    SnapshotWriter writer;
    std::string error;
    ASSERT_TRUE(SaveBoardShard(s.board, s.kernel, s.manager, &writer, &error))
        << error;
    const std::vector<uint8_t> sealed = writer.Seal();
    EXPECT_EQ(sealed.size(), cut.bytes);
    EXPECT_EQ(SnapshotCrc32(sealed.data() + kSnapshotHeaderSize,
                            sealed.size() - kSnapshotHeaderSize),
              cut.crc);
  }

  // The branches the pin covers. Storage counts a drain timeout that found
  // the channel healthy as a watchdog fire without a reset.
  const auto& gpu = s.kernel.gpu_driver();
  EXPECT_GT(gpu.domain_stats().aborted, 0u);
  EXPECT_GT(gpu.stats().commands_failed, 0u);
  const auto& storage = s.kernel.storage_driver();
  EXPECT_GT(storage.domain_stats().aborted, 0u);
  EXPECT_GT(storage.stats().commands_failed, 0u);
  EXPECT_GT(storage.stats().watchdog_fires, storage.stats().device_resets);
  EXPECT_GT(s.kernel.net().stats().tx_retransmits, 0u);
  EXPECT_GT(s.kernel.net().stats().socket_errors, 0u);
}

}  // namespace
}  // namespace psbox
