#include "src/kernel/task.h"

#include "src/snapshot/snapshot_io.h"

namespace psbox {

Action Action::Compute(DurationNs d, double intensity) {
  Action a;
  a.kind = ActionKind::kCompute;
  a.duration = d;
  a.intensity = intensity;
  return a;
}

Action Action::Sleep(DurationNs d) {
  Action a;
  a.kind = ActionKind::kSleep;
  a.duration = d;
  return a;
}

Action Action::SubmitAccel(HwComponent accel, int type, DurationNs work, Watts power) {
  Action a;
  a.kind = ActionKind::kSubmitAccel;
  a.accel = accel;
  a.cmd.type = type;
  a.cmd.nominal_work = work;
  a.cmd.active_power = power;
  return a;
}

Action Action::WaitAccel(int count) {
  Action a;
  a.kind = ActionKind::kWaitAccel;
  a.count = count;
  return a;
}

Action Action::Send(size_t bytes, size_t response_bytes, DurationNs response_delay,
                    int response_count) {
  Action a;
  a.kind = ActionKind::kSend;
  a.bytes = bytes;
  a.response_bytes = response_bytes;
  a.response_delay = response_delay;
  a.response_count = response_count;
  return a;
}

Action Action::WaitNet() {
  Action a;
  a.kind = ActionKind::kWaitNet;
  return a;
}

Action Action::StorageRead(size_t bytes) {
  Action a;
  a.kind = ActionKind::kSubmitStorage;
  a.bytes = bytes;
  a.storage_write = false;
  return a;
}

Action Action::StorageWrite(size_t bytes) {
  Action a;
  a.kind = ActionKind::kSubmitStorage;
  a.bytes = bytes;
  a.storage_write = true;
  return a;
}

Action Action::WaitStorage(int count) {
  Action a;
  a.kind = ActionKind::kWaitStorage;
  a.count = count;
  return a;
}

Action Action::Exit() {
  Action a;
  a.kind = ActionKind::kExit;
  return a;
}

template <class Ar>
void Task::Serialize(Ar& ar) {
  ar.Expect(static_cast<uint64_t>(id_),
            "task identity mismatch between snapshot and restored scenario");
  ar.Expect(app_,
            "task identity mismatch between snapshot and restored scenario");
  ar.Enum(state_, TaskState::kExited, "task state");
  ar.I64(remaining_compute_);
  ar.F64(intensity_);
  ar.I64(pending_accel_completions);
  ar.I64(awaited_accel_completions);
  ar.I64(net_inflight);
  ar.Bool(waiting_net);
  ar.I64(pending_storage_completions);
  ar.I64(awaited_storage_completions);
  ar.I64(core);
  ar.I64(total_cpu_time);
  ar.F64(vruntime);
  if constexpr (Ar::kLoading) {
    group = nullptr;  // re-linked by the scheduler's group restore
  }
  ar.Expect(behavior_->SnapshotMarker(),
            "task behavior type mismatch between snapshot and scenario");
  behavior_->Serialize(ar);
}

template void Task::Serialize(SnapshotWriter&);
template void Task::Serialize(SnapshotReader&);

}  // namespace psbox
