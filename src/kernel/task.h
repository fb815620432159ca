// Tasks and app behaviours.
//
// A Task is the schedulable unit (a thread). An app — the psbox principal —
// is one or more tasks sharing an AppId. Task logic is expressed as a
// Behavior: a state machine the kernel polls for the next Action whenever the
// previous one finishes. Actions model the ways apps exercise the hardware:
// CPU bursts, sleeps, accelerator command submission, packet transmission —
// enough to script every benchmark app of the paper's Table 5.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/time.h"
#include "src/base/types.h"
#include "src/hw/accel_device.h"

namespace psbox {

enum class ActionKind : uint8_t {
  // Run on the CPU for |duration| (nominal, at the top OPP) at |intensity|.
  kCompute,
  // Block for |duration| of wall time.
  kSleep,
  // Enqueue an accelerator command (|accel|, |cmd|); non-blocking.
  kSubmitAccel,
  // Block until |count| accelerator completions have been delivered to this
  // task (counting from previous waits).
  kWaitAccel,
  // Deposit a packet of |bytes| into this task's socket; non-blocking. If
  // |response_bytes| > 0, the channel model delivers that much RX traffic
  // back after |response_delay|.
  kSend,
  // Block until all of this task's submitted packets have left the NIC and
  // all pending responses have been received.
  kWaitNet,
  // Enqueue a storage transfer of |bytes| (|storage_write| selects the
  // direction); non-blocking.
  kSubmitStorage,
  // Block until |count| storage completions have been delivered to this task
  // (counting from previous waits).
  kWaitStorage,
  // Terminate the task.
  kExit,
};

struct Action {
  ActionKind kind = ActionKind::kExit;
  DurationNs duration = 0;
  double intensity = 1.0;
  HwComponent accel = HwComponent::kGpu;
  AccelCommand cmd;
  size_t bytes = 0;
  size_t response_bytes = 0;
  DurationNs response_delay = 0;
  // Number of RX chunks of |response_bytes| the channel answers with, spaced
  // |response_delay| apart (a streaming download).
  int response_count = 1;
  int count = 1;
  // Direction of a kSubmitStorage transfer (|bytes| is its size).
  bool storage_write = false;

  static Action Compute(DurationNs d, double intensity = 1.0);
  static Action Sleep(DurationNs d);
  static Action SubmitAccel(HwComponent accel, int type, DurationNs work, Watts power);
  static Action WaitAccel(int count = 1);
  static Action Send(size_t bytes, size_t response_bytes = 0,
                     DurationNs response_delay = 0, int response_count = 1);
  static Action WaitNet();
  static Action StorageRead(size_t bytes);
  static Action StorageWrite(size_t bytes);
  static Action WaitStorage(int count = 1);
  static Action Exit();
};

class Kernel;
class SnapshotReader;
class SnapshotWriter;
class Task;
class TaskGroup;

// What a behaviour sees when asked for its next action. |kernel| gives
// access to the simulated clock and the psbox user API (psbox_* calls are
// synchronous reads/mode changes and happen inline here).
struct TaskEnv {
  Kernel* kernel = nullptr;
  Task* task = nullptr;
  TimeNs now = 0;
};

class Behavior {
 public:
  virtual ~Behavior() = default;
  // Called when the previous action has fully completed. kExit ends the task.
  virtual Action NextAction(TaskEnv& env) = 0;

  // --- checkpoint support -------------------------------------------------
  // Restore replays the scenario's task factories to rebuild behaviours and
  // then overwrites their mutable state from the snapshot; the marker guards
  // against a snapshot written under a different scenario (the restored
  // behaviour type must match the saved one). 0 = stateless base. A
  // stateful behaviour forwards both overloads to one template body.
  virtual uint8_t SnapshotMarker() const { return 0; }
  virtual void Serialize(SnapshotWriter& ar) { (void)ar; }
  virtual void Serialize(SnapshotReader& ar) { (void)ar; }
};

enum class TaskState : uint8_t { kRunnable, kRunning, kBlocked, kExited };

class Task {
 public:
  Task(TaskId id, AppId app, std::string name, std::unique_ptr<Behavior> behavior)
      : id_(id), app_(app), name_(std::move(name)), behavior_(std::move(behavior)) {}

  TaskId id() const { return id_; }
  AppId app() const { return app_; }
  const std::string& name() const { return name_; }
  Behavior& behavior() { return *behavior_; }

  TaskState state() const { return state_; }
  void set_state(TaskState s) { state_ = s; }

  // Leftover of the in-progress kCompute action, in nominal nanoseconds.
  DurationNs remaining_compute() const { return remaining_compute_; }
  void set_remaining_compute(DurationNs d) { remaining_compute_ = d; }
  double intensity() const { return intensity_; }
  void set_intensity(double i) { intensity_ = i; }

  // Snapshot support: scheduling and syscall state, then the behaviour's.
  // Restore checks the task's identity and behaviour type against the
  // replayed scenario.
  template <class Ar>
  void Serialize(Ar& ar);

  // Accelerator completions delivered but not yet consumed by kWaitAccel.
  int pending_accel_completions = 0;
  int awaited_accel_completions = 0;
  // Packets in flight (TX not done or response not yet received).
  int net_inflight = 0;
  bool waiting_net = false;
  // Storage completions delivered but not yet consumed by kWaitStorage.
  int pending_storage_completions = 0;
  int awaited_storage_completions = 0;

  // Core this task currently prefers / runs on; -1 before first placement.
  CoreId core = -1;

  // Cumulative on-CPU time (real ns) — throughput/fairness metrics.
  DurationNs total_cpu_time = 0;

  // Scheduler state: CFS virtual runtime and (when sandboxed) the task group
  // this task belongs to.
  double vruntime = 0.0;
  TaskGroup* group = nullptr;

 private:
  TaskId id_;
  AppId app_;
  std::string name_;
  std::unique_ptr<Behavior> behavior_;
  TaskState state_ = TaskState::kRunnable;
  DurationNs remaining_compute_ = 0;
  double intensity_ = 1.0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_TASK_H_
