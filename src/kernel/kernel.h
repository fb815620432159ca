// Kernel facade: assembles the scheduler, governor, drivers and network
// stack over a Board, owns apps/tasks, and routes syscalls and interrupts.
//
// This is the simulated equivalent of the Linux 4.4 kernel the paper
// extends: CFS + cgroups (cpu_scheduler), cpufreq ondemand
// (cpufreq_governor), GPU/DSP command-queue drivers (accel_driver), and the
// fair packet scheduler (net_stack) — each carrying the ~2250-SLoC psbox
// extensions described in §4/§5.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/hw/board.h"
#include "src/kernel/accel_driver.h"
#include "src/kernel/balloon_observer.h"
#include "src/kernel/cpu_scheduler.h"
#include "src/kernel/cpufreq_governor.h"
#include "src/kernel/direct_domain.h"
#include "src/kernel/net_stack.h"
#include "src/kernel/psbox_service.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/storage_driver.h"
#include "src/kernel/task.h"
#include "src/kernel/usage_ledger.h"

namespace psbox {

struct KernelConfig {
  SchedConfig sched;
  GovernorConfig governor;
  AccelDriverConfig gpu_driver;
  AccelDriverConfig dsp_driver;
  NetConfig net;
  StorageDriverConfig storage_driver;
  // Ablation: when false, CPU balloons do not switch the governor's
  // operating point (the sandbox sees whatever operating point the system
  // happens to be in).
  bool virtualize_cpu_freq = true;
  // Telemetry retention (0 = keep everything, the default). When set, the
  // kernel periodically trims power telemetry — rail traces, sandbox
  // ownership history, domain timelines, schedule traces, usage-ledger
  // records — behind Now() - telemetry_retention, after folding the trimmed
  // history into exact per-sandbox base accumulators. Long runs then hold a
  // bounded telemetry working set while psbox_read and whole-history energy
  // queries stay exact; only windowed queries reaching behind the horizon
  // (and undrained sample backlog, dropped with ring-buffer semantics)
  // lose resolution. The same trim retires finished apps whose last
  // activity lies behind the horizon (Kernel::TrimTelemetry), so per-board
  // state stays bounded by the apps alive now. The trim runs every
  // telemetry_retention / 2.
  DurationNs telemetry_retention = 0;
};

class Kernel : public EventTarget {
 public:
  explicit Kernel(Board* board, KernelConfig config = {});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- apps & tasks -----------------------------------------------------
  // App and task ids are monotonic counters (apps from 0, tasks from 1) and
  // are never reused, not even after the app retires.
  AppId CreateApp(std::string name);
  // Name and tasks of a live app; abort descriptively for a retired one.
  const std::string& AppName(AppId app) const;
  Task* SpawnTask(AppId app, std::string name, std::unique_ptr<Behavior> behavior,
                  CoreId core = -1);
  const std::vector<Task*>& AppTasks(AppId app) const;
  // True once every task of |app| has exited (always true once retired).
  bool AppFinished(AppId app) const;
  // True once the retention trim freed |app| (see TrimTelemetry).
  bool AppRetired(AppId app) const;
  // Apps retired over the kernel's lifetime.
  uint64_t retired_apps() const { return retired_apps_; }
  // Live task with the given id; nullptr for unknown or retired ids.
  // Snapshot restore uses this to resolve saved task references.
  Task* TaskById(TaskId id) const;

  // --- subsystem access ---------------------------------------------------
  Board& board() { return *board_; }
  const KernelConfig& config() const { return config_; }
  Simulator& sim() { return board_->sim(); }
  TimeNs Now() const { return board_->sim().Now(); }
  CpuScheduler& scheduler() { return *scheduler_; }
  CpufreqGovernor& governor() { return *governor_; }
  AccelDriver& gpu_driver() { return *gpu_driver_; }
  AccelDriver& dsp_driver() { return *dsp_driver_; }
  AccelDriver& DriverFor(HwComponent hw);
  NetStack& net() { return *net_; }
  StorageDriver& storage_driver() { return *storage_driver_; }
  UsageLedger& ledger() { return ledger_; }

  // --- resource-domain registry -------------------------------------------
  // Every HwComponent registers a ResourceDomain here at kernel
  // construction — balloon-carrying policies for CPU/GPU/DSP/WiFi/storage,
  // thin direct-metered policies for the §7 entanglement-free display and
  // GPS — and the psbox manager addresses them uniformly by component.
  // Aborts with a descriptive message when |hw| has no domain (a wiring bug).
  ResourceDomain& domain(HwComponent hw);
  // Null instead of aborting for unbound components.
  ResourceDomain* FindDomain(HwComponent hw) {
    return domains_[static_cast<size_t>(hw)];
  }

  // --- psbox integration ----------------------------------------------
  void set_psbox_service(PsboxService* service) { psbox_service_ = service; }
  PsboxService* psbox_service() { return psbox_service_; }
  // Hands |observer| (the psbox manager) to every registered domain, which
  // notifies it at each ownership edge after swapping its own virtualised
  // power state.
  void set_balloon_observer(BalloonObserver* observer);

  // --- syscall & interrupt plumbing (used by the scheduler/drivers) ----
  void ScheduleTaskWake(Task* task, DurationNs delay);
  void HandleSubmitAccel(Task* task, const Action& action);
  void HandleSend(Task* task, const Action& action);
  void HandleSubmitStorage(Task* task, const Action& action);
  // One command completion for |task|, counted in |pending| (one of its
  // per-device counters); wakes the task once it has the |awaited| ones it
  // blocked for.
  void DeliverCompletion(Task* task, int& pending, int& awaited);
  void DeliverNetDone(Task* task);
  void ExpectRx(Task* task, size_t bytes);
  void DeliverRx(AppId app, size_t bytes);
  // The scheduler ran |task|'s exit action; the app finishes with its last
  // task and then awaits retirement.
  void OnTaskExited(Task* task);

  // Runs the simulation until |deadline| (convenience passthrough).
  void RunUntil(TimeNs deadline) { board_->sim().RunUntil(deadline); }

  // --- telemetry retention ------------------------------------------------
  // Trims power telemetry behind |desired|, clamped by the sandboxes'
  // retain floor (meter-dropout windows inside straddling spans). Runs on a
  // periodic tick when KernelConfig::telemetry_retention is set; tests and
  // tools may also call it directly. Returns the horizon actually applied
  // (0 = nothing done).
  //
  // The trim then retires every finished app that can no longer affect
  // anything: its tasks have exited (before the horizon), its sandboxes
  // are left, idle and fully folded, no pending event names it or its
  // tasks, and every domain reports it retirable at the horizon. Retiring
  // frees its state in every layer; its sandboxes' final balloon-metered
  // energy moves into their tenants' closed-children bases. The sweep walks
  // only the apps awaiting retirement, in ascending id order.
  TimeNs TrimTelemetry(TimeNs desired);
  TimeNs last_trim_horizon() const { return last_trim_horizon_; }

  // --- checkpoint/restore -------------------------------------------------
  // Restore protocol: BeginRestore() puts the kernel in restore mode —
  // SpawnTask then only registers tasks (no scheduling) while the caller
  // re-creates the snapshot's live apps, each under its recorded ids
  // (RestoreIdsAt); Serialize() with a reader overwrites all mutable state
  // from the snapshot; EndRestore() leaves restore mode. See
  // src/snapshot/board_snapshot.h for the full sequence.
  void BeginRestore() { restoring_ = true; }
  void EndRestore() { restoring_ = false; }
  bool restoring() const { return restoring_; }
  // Create-under-id (restore mode only): the next CreateApp takes id |app|
  // and the tasks spawned after it take ids from |first_task| on. False,
  // changing nothing, when either id lies below one already handed out.
  bool RestoreIdsAt(AppId app, TaskId first_task);
  // The id the first task of live app |app| has or would have had: the
  // task counter when the app was created.
  TaskId FirstTaskId(AppId app) const { return App(app).first_task; }
  // Persists the id counters and the live apps with their tasks (incl.
  // behaviour state), syscall bookkeeping, the usage ledger and every
  // kernel subsystem. The load fails unless the apps re-created before it
  // are exactly the ones the snapshot lists, and restores the counters,
  // which must lie past every re-created id.
  template <class Ar>
  void Serialize(Ar& ar);

  // The periodic trim and task wake timers (a: the task id).
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;
  std::string CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const override;

 private:
  enum EventKind : uint8_t { kTrim, kWake, kEventKinds };

  // Binds |domain| into the registry slot for its component and attaches the
  // usage ledger.
  void RegisterDomain(ResourceDomain* domain);
  // Self-rescheduling periodic trim tick (armed when retention is on).
  void ArmTelemetryTrim();

  struct AppRecord {
    AppId id = kNoApp;
    TaskId first_task = 0;  // next_task_id_ at creation
    std::string name;
    std::vector<Task*> tasks;
    int live_tasks = 0;
    // When the last task exited; -1 while one still runs (or none ever did).
    TimeNs exited_at = -1;
  };
  // The live app |app|; FindApp returns null for a retired or unknown id,
  // App aborts naming it.
  const AppRecord* FindApp(AppId app) const;
  const AppRecord& App(AppId app) const;
  AppRecord& App(AppId app) {
    return const_cast<AppRecord&>(std::as_const(*this).App(app));
  }
  // Retirement sweep over finished_ (see TrimTelemetry).
  void RetireFinishedApps(TimeNs horizon);
  void RetireApp(AppId app);

  Board* board_;
  TargetId target_;
  KernelConfig config_;
  UsageLedger ledger_;
  std::unique_ptr<CpuScheduler> scheduler_;
  std::unique_ptr<CpufreqGovernor> governor_;
  std::unique_ptr<AccelDriver> gpu_driver_;
  std::unique_ptr<AccelDriver> dsp_driver_;
  std::unique_ptr<NetStack> net_;
  std::unique_ptr<StorageDriver> storage_driver_;
  std::unique_ptr<DisplayDomain> display_domain_;
  std::unique_ptr<GpsDomain> gps_domain_;
  std::array<ResourceDomain*, kNumHwComponents> domains_{};
  PsboxService* psbox_service_ = nullptr;

  // Live apps and tasks in ascending id order (ids only grow, so creation
  // appends and retirement erases in place; lookups binary-search).
  std::vector<AppRecord> apps_;
  std::vector<std::unique_ptr<Task>> tasks_;
  // Apps whose tasks have all exited, awaiting retirement.
  std::set<AppId> finished_;
  std::unordered_map<AppId, std::deque<Task*>> rx_waiters_;
  AppId next_app_id_ = 0;
  TaskId next_task_id_ = 1;
  uint64_t retired_apps_ = 0;
  TimeNs last_trim_horizon_ = 0;

  bool restoring_ = false;
};

}  // namespace psbox

#endif  // SRC_KERNEL_KERNEL_H_
