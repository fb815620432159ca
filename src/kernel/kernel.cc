#include "src/kernel/kernel.h"

#include <algorithm>
#include <limits>
#include <map>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

Kernel::Kernel(Board* board, KernelConfig config)
    : board_(board),
      target_(board->sim().AddTarget(this, {"kernel", kEventKinds, 1 << kTrim})),
      config_(config) {
  scheduler_ = std::make_unique<CpuScheduler>(&board_->sim(), &board_->cpu(),
                                              config_.sched, this);
  governor_ = std::make_unique<CpufreqGovernor>(&board_->sim(), scheduler_.get(),
                                                &board_->cpu(), config_.governor);
  AccelDriverConfig gpu_cfg = config_.gpu_driver;
  AccelDriverConfig dsp_cfg = config_.dsp_driver;
  // The DSP serves long-running kernels; give balloons a longer grant (this
  // is why the paper reports ~100 ms DSP dispatch latencies vs 1.8 ms GPU).
  if (dsp_cfg.min_grant == AccelDriverConfig{}.min_grant) {
    dsp_cfg.min_grant = 40 * kMillisecond;
    dsp_cfg.switch_lead = 20 * kMillisecond;
  }
  gpu_driver_ = std::make_unique<AccelDriver>(&board_->sim(), &board_->gpu(),
                                              HwComponent::kGpu, this, gpu_cfg);
  dsp_driver_ = std::make_unique<AccelDriver>(&board_->sim(), &board_->dsp(),
                                              HwComponent::kDsp, this, dsp_cfg);
  net_ = std::make_unique<NetStack>(&board_->sim(), &board_->wifi(), this, config_.net);
  storage_driver_ = std::make_unique<StorageDriver>(
      &board_->sim(), &board_->storage(), this, config_.storage_driver);
  display_domain_ = std::make_unique<DisplayDomain>(&board_->sim(), &board_->display());
  gps_domain_ = std::make_unique<GpsDomain>(&board_->sim(), &board_->gps());

  RegisterDomain(scheduler_.get());
  RegisterDomain(gpu_driver_.get());
  RegisterDomain(dsp_driver_.get());
  RegisterDomain(net_.get());
  RegisterDomain(storage_driver_.get());
  RegisterDomain(display_domain_.get());
  RegisterDomain(gps_domain_.get());
  governor_->Start();
  if (config_.telemetry_retention > 0) {
    ArmTelemetryTrim();
  }
}

void Kernel::ArmTelemetryTrim() {
  board_->sim().ScheduleAfter(
      std::max<DurationNs>(1, config_.telemetry_retention / 2), target_, kTrim);
}

void Kernel::OnEvent(uint8_t kind, uint64_t a, uint64_t /*b*/) {
  if (kind == kTrim) {
    TrimTelemetry(Now() - config_.telemetry_retention);
    ArmTelemetryTrim();
    return;
  }
  Task* task = TaskById(static_cast<TaskId>(a));
  PSBOX_CHECK(task != nullptr);
  if (task->state() == TaskState::kBlocked) {
    scheduler_->WakeTask(task);
  }
}

std::string Kernel::CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const {
  if (kind != kWake) {
    return EventTarget::CheckEvent(kind, a, b);
  }
  if (a != static_cast<uint64_t>(static_cast<TaskId>(a)) ||
      TaskById(static_cast<TaskId>(a)) == nullptr) {
    return "names task " + std::to_string(a) + ", which does not exist";
  }
  return {};
}

TimeNs Kernel::TrimTelemetry(TimeNs desired) {
  // Clamp the horizon to what the sandboxes can still resolve exactly. The
  // domains need no floor: they keep balloon times, not telemetry, and the
  // energy of an open balloon is the psbox span's to keep.
  TimeNs horizon = desired;
  if (psbox_service_ != nullptr) {
    horizon = psbox_service_->TelemetryFloor(horizon);
  }
  if (horizon <= 0) {
    return 0;
  }
  // Sandboxes fold their trimmed ownership history into energy bases first —
  // the folding integrates the rails, so it must see them untrimmed.
  if (psbox_service_ != nullptr) {
    psbox_service_->TrimTelemetry(horizon);
  }
  for (size_t i = 0; i < kNumHwComponents; ++i) {
    if (domains_[i] != nullptr) {
      domains_[i]->TrimTelemetry(horizon);
    }
    board_->RailFor(static_cast<HwComponent>(i)).TrimBefore(horizon);
  }
  ledger_.TrimBefore(horizon);
  last_trim_horizon_ = horizon;
  RetireFinishedApps(horizon);
  return horizon;
}

void Kernel::RetireFinishedApps(TimeNs horizon) {
  if (finished_.empty()) {
    return;
  }
  // Activity at or after the cutoff may still be seen by a later decision.
  const TimeNs cutoff = std::min(horizon, Now());
  const auto retirable = [&](AppId app) {
    const AppRecord& rec = App(app);
    if (rec.live_tasks > 0 || rec.exited_at < 0 || rec.exited_at >= cutoff) {
      return false;
    }
    auto rx = rx_waiters_.find(app);
    if (rx != rx_waiters_.end() && !rx->second.empty()) {
      return false;
    }
    // A pending wake timer names its task.
    for (const Task* t : rec.tasks) {
      if (board_->sim().FindPending(target_, kWake,
                                    static_cast<uint64_t>(t->id())) !=
          kInvalidEventId) {
        return false;
      }
    }
    for (const ResourceDomain* d : domains_) {
      if (!d->Retirable(app, cutoff)) {
        return false;
      }
    }
    return psbox_service_ == nullptr || psbox_service_->AppRetirable(app);
  };
  for (auto it = finished_.begin(); it != finished_.end();) {
    if (retirable(*it)) {
      RetireApp(*it);
      it = finished_.erase(it);
    } else {
      ++it;
    }
  }
}

void Kernel::RetireApp(AppId app) {
  // Sandboxes first: their retirement unbinds per-box domain state (task
  // groups, governor operating points) before the domains drop per-app
  // state.
  if (psbox_service_ != nullptr) {
    psbox_service_->RetireApp(app);
  }
  for (ResourceDomain* d : domains_) {
    d->RetireApp(app);
  }
  const AppRecord& rec = App(app);
  for (const Task* t : rec.tasks) {
    scheduler_->ForgetTask(t->id());
  }
  std::erase_if(tasks_, [app](const std::unique_ptr<Task>& t) {
    return t->app() == app;
  });
  apps_.erase(apps_.begin() + (&rec - apps_.data()));
  rx_waiters_.erase(app);
  ++retired_apps_;
}

Kernel::~Kernel() = default;

AppId Kernel::CreateApp(std::string name) {
  const AppId app = next_app_id_++;
  AppRecord& rec = apps_.emplace_back();
  rec.id = app;
  rec.first_task = next_task_id_;
  rec.name = std::move(name);
  return app;
}

bool Kernel::RestoreIdsAt(AppId app, TaskId first_task) {
  PSBOX_CHECK(restoring_);
  if (app < next_app_id_ || first_task < next_task_id_) {
    return false;
  }
  next_app_id_ = app;
  next_task_id_ = first_task;
  return true;
}

const Kernel::AppRecord* Kernel::FindApp(AppId app) const {
  auto it = std::lower_bound(
      apps_.begin(), apps_.end(), app,
      [](const AppRecord& rec, AppId id) { return rec.id < id; });
  return it != apps_.end() && it->id == app ? &*it : nullptr;
}

const Kernel::AppRecord& Kernel::App(AppId app) const {
  const AppRecord* rec = FindApp(app);
  if (rec == nullptr) {
    CheckFail(__FILE__, __LINE__,
              "app " + std::to_string(app) +
                  (AppRetired(app) ? " is retired" : " does not exist"));
  }
  return *rec;
}

Task* Kernel::TaskById(TaskId id) const {
  auto it = std::lower_bound(
      tasks_.begin(), tasks_.end(), id,
      [](const std::unique_ptr<Task>& t, TaskId v) { return t->id() < v; });
  return it != tasks_.end() && (*it)->id() == id ? it->get() : nullptr;
}

const std::string& Kernel::AppName(AppId app) const { return App(app).name; }

Task* Kernel::SpawnTask(AppId app, std::string name, std::unique_ptr<Behavior> behavior,
                        CoreId core) {
  AppRecord& rec = App(app);
  tasks_.push_back(std::make_unique<Task>(next_task_id_++, app, std::move(name),
                                          std::move(behavior)));
  Task* task = tasks_.back().get();
  rec.tasks.push_back(task);
  ++rec.live_tasks;
  rec.exited_at = -1;
  finished_.erase(app);
  if (!restoring_) {
    // During snapshot restore the scenario replay only registers the task;
    // its scheduler state is overwritten wholesale by Serialize.
    scheduler_->AddTask(task, core);
  }
  return task;
}

const std::vector<Task*>& Kernel::AppTasks(AppId app) const { return App(app).tasks; }

bool Kernel::AppFinished(AppId app) const {
  const AppRecord* rec = FindApp(app);
  if (rec != nullptr) {
    return rec->live_tasks == 0;
  }
  PSBOX_CHECK(AppRetired(app));
  return true;
}

bool Kernel::AppRetired(AppId app) const {
  return app >= 0 && app < next_app_id_ && FindApp(app) == nullptr;
}

void Kernel::OnTaskExited(Task* task) {
  AppRecord& rec = App(task->app());
  PSBOX_CHECK_GT(rec.live_tasks, 0);
  if (--rec.live_tasks == 0) {
    rec.exited_at = Now();
    finished_.insert(task->app());
  }
}

void Kernel::RegisterDomain(ResourceDomain* domain) {
  const size_t slot = static_cast<size_t>(domain->kind());
  if (domains_[slot] != nullptr) {
    CheckFail(__FILE__, __LINE__,
              std::string("duplicate ResourceDomain registration for ") +
                  domain->name());
  }
  domains_[slot] = domain;
  domain->set_ledger(&ledger_);
}

void Kernel::set_balloon_observer(BalloonObserver* observer) {
  for (ResourceDomain* d : domains_) {
    d->set_balloon_observer(observer);
  }
}

ResourceDomain& Kernel::domain(HwComponent hw) {
  ResourceDomain* d = FindDomain(hw);
  if (d == nullptr) {
    CheckFail(__FILE__, __LINE__,
              std::string("no ResourceDomain registered for ") +
                  HwComponentName(hw));
  }
  return *d;
}

AccelDriver& Kernel::DriverFor(HwComponent hw) {
  if (hw != HwComponent::kGpu && hw != HwComponent::kDsp) {
    CheckFail(__FILE__, __LINE__,
              std::string("DriverFor: ") + HwComponentName(hw) +
                  " is not an accelerator (use domain() for the generic "
                  "balloon surface)");
  }
  return static_cast<AccelDriver&>(domain(hw));
}

void Kernel::ScheduleTaskWake(Task* task, DurationNs delay) {
  board_->sim().ScheduleAfter(delay, target_, kWake,
                              static_cast<uint64_t>(task->id()));
}

void Kernel::HandleSubmitAccel(Task* task, const Action& action) {
  DriverFor(action.accel).Submit(task, action.cmd);
}

void Kernel::HandleSend(Task* task, const Action& action) {
  net_->Send(task, action);
}

void Kernel::HandleSubmitStorage(Task* task, const Action& action) {
  StorageCommand cmd;
  cmd.is_write = action.storage_write;
  cmd.bytes = action.bytes;
  storage_driver_->Submit(task, cmd);
}

void Kernel::DeliverCompletion(Task* task, int& pending, int& awaited) {
  ++pending;
  if (task->state() == TaskState::kBlocked && awaited > 0 && pending >= awaited) {
    pending -= awaited;
    awaited = 0;
    scheduler_->WakeTask(task);
  }
}

void Kernel::DeliverNetDone(Task* task) {
  if (task->state() == TaskState::kBlocked && task->waiting_net &&
      task->net_inflight == 0) {
    task->waiting_net = false;
    scheduler_->WakeTask(task);
  }
}

void Kernel::ExpectRx(Task* task, size_t bytes) {
  (void)bytes;
  rx_waiters_[task->app()].push_back(task);
}

void Kernel::DeliverRx(AppId app, size_t bytes) {
  (void)bytes;
  auto it = rx_waiters_.find(app);
  if (it == rx_waiters_.end() || it->second.empty()) {
    return;  // unsolicited RX (co-runner downloads etc.)
  }
  Task* task = it->second.front();
  it->second.pop_front();
  --task->net_inflight;
  DeliverNetDone(task);
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

template <class Ar>
void Kernel::Serialize(Ar& ar) {
  if (!ar.Section("kernel")) {
    return;
  }
  // The id counters. The restore re-created the live apps under their ids
  // before this load, so each counter must lie past every id handed out.
  uint64_t next_app = static_cast<uint64_t>(next_app_id_);
  uint64_t next_task = static_cast<uint64_t>(next_task_id_);
  ar.U64(next_app);
  ar.U64(next_task);
  if constexpr (Ar::kLoading) {
    if (ar.ok() && (next_app < static_cast<uint64_t>(next_app_id_) ||
                    next_app > static_cast<uint64_t>(
                                   std::numeric_limits<AppId>::max()))) {
      ar.Fail("snapshot app id counter " + std::to_string(next_app) +
              " does not lie past the re-created app ids (next " +
              std::to_string(next_app_id_) + ")");
    }
    if (ar.ok() && (next_task < static_cast<uint64_t>(next_task_id_) ||
                    next_task > static_cast<uint64_t>(
                                    std::numeric_limits<TaskId>::max()))) {
      ar.Fail("snapshot task id counter " + std::to_string(next_task) +
              " does not lie past the re-created task ids (next " +
              std::to_string(next_task_id_) + ")");
    }
    if (!ar.ok()) {
      return;
    }
    next_app_id_ = static_cast<AppId>(next_app);
    next_task_id_ = static_cast<TaskId>(next_task);
  }
  ar.U64(retired_apps_);
  // The live apps in id order, each with its tasks.
  auto app_body = [&](AppRecord& rec) {
    ar.Expect(rec.name,
              "app name mismatch between snapshot and restored scenario");
    ar.I64(rec.exited_at);
    ar.Fixed(rec.tasks, 64,
             "task count mismatch between snapshot and restored scenario",
             [&](Task*& t) {
      t->Serialize(ar);
      if constexpr (Ar::kLoading) {
        if (ar.ok() && (t->core < 0 || t->core >= scheduler_->num_cores())) {
          ar.Fail("snapshot task " + std::to_string(t->id()) + " core " +
                  std::to_string(t->core) + " out of range");
        }
      }
    });
    if constexpr (Ar::kLoading) {
      rec.live_tasks = static_cast<int>(
          std::count_if(rec.tasks.begin(), rec.tasks.end(), [](const Task* t) {
            return t->state() != TaskState::kExited;
          }));
      if (!rec.tasks.empty() && rec.live_tasks == 0) {
        finished_.insert(rec.id);
      }
    }
  };
  size_t live = apps_.size();
  ar.Count(live, 25);
  if constexpr (Ar::kLoading) {
    finished_.clear();
  }
  // The load walks the re-created apps alongside the listed ids: both
  // ascend, so any difference is an app one side has and the other lacks.
  for (size_t i = 0; i < live && ar.ok(); ++i) {
    AppId id = Ar::kLoading ? kNoApp : apps_[i].id;
    ar.I64(id);
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) {
        return;
      }
      if (FindApp(id) == nullptr) {
        ar.Fail("snapshot lists app " + std::to_string(id) +
                " that the restored scenario did not create");
        return;
      }
      if (i >= apps_.size() || apps_[i].id > id) {
        ar.Fail("snapshot lists app " + std::to_string(id) + " out of order");
        return;
      }
      if (apps_[i].id < id) {
        ar.Fail("restore created app " + std::to_string(apps_[i].id) +
                " that the snapshot does not list");
        return;
      }
    }
    app_body(apps_[i]);
  }
  if constexpr (Ar::kLoading) {
    if (ar.ok() && live < apps_.size()) {
      ar.Fail("restore created app " + std::to_string(apps_[live].id) +
              " that the snapshot does not list");
      return;
    }
  }
  ar.Map(rx_waiters_, 16, [&](AppId& app, std::deque<Task*>& waiters) {
    ar.I64(app);
    ar.Seq(waiters, 8, [&](Task*& t) {
      ar.TaskRef(t, *this, "rx waiter references unknown task in snapshot",
                 /*nullable=*/false);
    });
  });
  ar.I64(last_trim_horizon_);
  ledger_.Serialize(ar);
  scheduler_->Serialize(ar);
  governor_->Serialize(ar);
  gpu_driver_->Serialize(ar);
  dsp_driver_->Serialize(ar);
  net_->Serialize(ar);
  storage_driver_->Serialize(ar);
  display_domain_->SerializeDomain(ar);
  gps_domain_->SerializeDomain(ar);
}

template void Kernel::Serialize(SnapshotWriter&);
template void Kernel::Serialize(SnapshotReader&);

}  // namespace psbox
