#include "src/kernel/kernel.h"

#include <algorithm>
#include <map>

#include "src/base/check.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

Kernel::Kernel(Board* board, KernelConfig config)
    : board_(board), config_(config) {
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
  const DurationNs period =
      config_.telemetry_trim_period > 0
          ? config_.telemetry_trim_period
          : std::max<DurationNs>(1, config_.telemetry_retention / 2);
  ArmTelemetryTrimAt(board_->sim().Now() + period);
}

void Kernel::ArmTelemetryTrimAt(TimeNs when) {
  trim_event_ = board_->sim().ScheduleAt(when, [this] {
    trim_event_ = kInvalidEventId;
    TrimTelemetry(Now() - config_.telemetry_retention);
    ArmTelemetryTrim();
  });
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
  return horizon;
}

Kernel::~Kernel() = default;

AppId Kernel::CreateApp(std::string name) {
  app_names_.push_back(std::move(name));
  const AppId app = static_cast<AppId>(app_names_.size() - 1);
  app_tasks_[app];  // materialise the (possibly empty) task list
  return app;
}

const std::string& Kernel::AppName(AppId app) const {
  PSBOX_CHECK_GE(app, 0);
  PSBOX_CHECK_LT(static_cast<size_t>(app), app_names_.size());
  return app_names_[static_cast<size_t>(app)];
}

Task* Kernel::SpawnTask(AppId app, std::string name, std::unique_ptr<Behavior> behavior,
                        CoreId core) {
  tasks_.push_back(std::make_unique<Task>(next_task_id_++, app, std::move(name),
                                          std::move(behavior)));
  Task* task = tasks_.back().get();
  app_tasks_[app].push_back(task);
  if (!restoring_) {
    // During snapshot restore the scenario replay only registers the task;
    // its scheduler state is overwritten wholesale by Serialize.
    scheduler_->AddTask(task, core);
  }
  return task;
}

const std::vector<Task*>& Kernel::AppTasks(AppId app) const {
  auto it = app_tasks_.find(app);
  PSBOX_CHECK(it != app_tasks_.end());
  return it->second;
}

bool Kernel::AppFinished(AppId app) const {
  for (const Task* t : AppTasks(app)) {
    if (t->state() != TaskState::kExited) {
      return false;
    }
  }
  return true;
}

void Kernel::RegisterDomain(ResourceDomain* domain) {
  const size_t slot = static_cast<size_t>(domain->kind());
  if (domains_[slot] != nullptr) {
    CheckFail(__FILE__, __LINE__,
              std::string("duplicate ResourceDomain registration for ") +
                  domain->name());
  }
  domains_[slot] = domain;
  domain->set_balloon_observer(this);
  domain->set_ledger(&ledger_);
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

void Kernel::RegisterCpuContext(PsboxId box) {
  cpu_context_of_box_[box] = governor_->ContextForBox(box);
}

void Kernel::OnBalloonIn(PsboxId box, HwComponent hw, TimeNs when) {
  if (hw == HwComponent::kCpu && config_.virtualize_cpu_freq) {
    // Power state virtualisation for the CPU: restore the sandbox's DVFS
    // context at the balloon edge. (Accelerator/NIC state is swapped inside
    // their drivers.)
    auto it = cpu_context_of_box_.find(box);
    if (it != cpu_context_of_box_.end()) {
      governor_->SwitchContext(it->second);
    }
  }
  if (external_observer_ != nullptr) {
    external_observer_->OnBalloonIn(box, hw, when);
  }
}

void Kernel::OnBalloonOut(PsboxId box, HwComponent hw, TimeNs when) {
  if (hw == HwComponent::kCpu && config_.virtualize_cpu_freq) {
    governor_->SwitchContext(CpufreqGovernor::kGlobalContext);
  }
  if (external_observer_ != nullptr) {
    external_observer_->OnBalloonOut(box, hw, when);
  }
}

void Kernel::ScheduleTaskWake(Task* task, DurationNs delay) {
  ScheduleTaskWakeAt(task, board_->sim().Now() + delay);
}

void Kernel::ScheduleTaskWakeAt(Task* task, TimeNs when) {
  std::erase_if(wake_events_, [this](const std::pair<TaskId, EventId>& we) {
    return !board_->sim().IsPending(we.second);
  });
  wake_events_.emplace_back(
      task->id(), board_->sim().ScheduleAt(when, [this, task] {
        if (task->state() == TaskState::kBlocked) {
          scheduler_->WakeTask(task);
        }
      }));
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

void Kernel::DeliverAccelCompletion(Task* task) {
  if (task->state() == TaskState::kBlocked && task->awaited_accel_completions > 0 &&
      task->pending_accel_completions >= task->awaited_accel_completions) {
    task->pending_accel_completions -= task->awaited_accel_completions;
    task->awaited_accel_completions = 0;
    scheduler_->WakeTask(task);
  }
}

void Kernel::DeliverStorageCompletion(Task* task) {
  if (task->state() == TaskState::kBlocked &&
      task->awaited_storage_completions > 0 &&
      task->pending_storage_completions >= task->awaited_storage_completions) {
    task->pending_storage_completions -= task->awaited_storage_completions;
    task->awaited_storage_completions = 0;
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
  ar.Fixed(app_names_, 9,
           "app count mismatch between snapshot and restored scenario",
           [&](std::string& name) {
             ar.Expect(name,
                       "app name mismatch between snapshot and restored "
                       "scenario");
           });
  ar.Fixed(tasks_, 64,
           "task count mismatch between snapshot and restored scenario",
           [&](std::unique_ptr<Task>& t) { t->Serialize(ar); });
  ar.Expect(static_cast<uint64_t>(next_task_id_),
            "task id sequence mismatch between snapshot and restored scenario");
  ar.Map(rx_waiters_, 16, [&](AppId& app, std::deque<Task*>& waiters) {
    ar.I64(app);
    ar.Seq(waiters, 8, [&](Task*& t) {
      ar.TaskRef(t, *this, "rx waiter references unknown task in snapshot",
                 /*nullable=*/false);
    });
  });
  ar.Map(cpu_context_of_box_, 16, [&](PsboxId& box, int& ctx) {
    ar.I64(box);
    ar.I64(ctx);
  });
  ar.I64(last_trim_horizon_);
  ledger_.Serialize(ar);
  ar.Event(trim_event_, [this](TimeNs when) { ArmTelemetryTrimAt(when); });
  ar.PendingEvents(wake_events_, 18, [&](std::pair<TaskId, EventId>& wake) {
    Task* t = TaskById(wake.first);
    ar.TaskRef(t, *this, "wake timer references unknown task in snapshot",
               /*nullable=*/false);
    ar.Event(wake.second,
             [this, t](TimeNs when) { ScheduleTaskWakeAt(t, when); });
  });
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
