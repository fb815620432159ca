// Network stack: per-app socket buffers, a fair packet scheduler, and psbox
// temporal balloons for the WiFi NIC (§4.2 "Wireless interfaces").
//
// Apps trap into the kernel to deposit packets into their buffers; the
// packet scheduler dispatches one frame at a time to the NIC, favouring the
// app with the least bytes of credit (fq-style fairness). psbox extensions:
//   * temporal balloons with drain phases, holding back competitors'
//     packets in their per-socket buffers while the sandbox owns the NIC;
//   * lost-opportunity tracking — buffered packets that could have flown
//     without the balloon discount the sandboxed app's credit;
//   * per-psbox virtualised NIC power state (tx power level, PS timeout).
// Packet *reception* cannot be deferred (the WiLink8 MAC limitation, §5):
// RX frames reach the NIC regardless of balloon ownership, which is the
// paper's acknowledged leak in the Fig 6 WiFi row.
// The drains need no watchdog: on this NIC model every frame completes, so a
// wedged drain cannot occur.

#ifndef SRC_KERNEL_NET_STACK_H_
#define SRC_KERNEL_NET_STACK_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/hw/wifi_device.h"
#include "src/kernel/fair_queue.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/task.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct NetConfig {
  DurationNs min_grant = 5 * kMillisecond;
  // The balloon releases the NIC once the owner's byte credit leads the best
  // competitor by this much.
  size_t switch_lead_bytes = 24 * 1024;
  // Ablation knob (DESIGN.md §4); defaults to the paper's design.
  bool charge_lost_opportunity = true;

  // --- fault recovery (DESIGN.md "Fault model & recovery semantics") ------
  // A TX frame the channel drops is retransmitted after a capped exponential
  // backoff (base * 2^attempt, at most the cap); after max_tx_retries
  // attempts the packet is dropped and a socket error is delivered instead.
  int max_tx_retries = 5;
  DurationNs retransmit_backoff_base = 1 * kMillisecond;
  DurationNs retransmit_backoff_cap = 32 * kMillisecond;
};

class NetStack : public ResourceDomain {
 public:
  NetStack(Simulator* sim, WifiDevice* device, Kernel* kernel, NetConfig config = {});

  // Syscall path: enqueue |action.bytes| for transmission on |task|'s app
  // socket; optionally the channel answers with action.response_bytes of RX
  // after action.response_delay.
  void Send(Task* task, const Action& action);

  // Channel-model path: unsolicited RX traffic destined to |app| (cannot be
  // deferred by the driver).
  void InjectRx(AppId app, size_t bytes);

  // --- psbox temporal balloons (ResourceDomain) ---
  void SetSandboxed(AppId app, PsboxId box) override;
  void ClearSandboxed(AppId app) override;

  // --- app retirement (ResourceDomain) ---
  // Retirable once the app's socket holds no queued, in-flight or
  // backed-off packet, owes it no response (no RX injection pending), and
  // its last activity is older than the recency window.
  bool Retirable(AppId app, TimeNs cutoff) const override;
  void RetireApp(AppId app) override { socks_.Erase(app); }

  struct Stats {
    uint64_t tx_frames = 0;
    uint64_t rx_frames = 0;
    DurationNs total_tx_latency = 0;  // enqueue -> airtime start
    DurationNs max_tx_latency = 0;
    // Recovery counters.
    uint64_t tx_retransmits = 0;   // lost frames re-enqueued after backoff
    uint64_t tx_failed = 0;        // packets dropped after max_tx_retries
    uint64_t socket_errors = 0;    // errors delivered to submitting tasks
  };
  const Stats& stats() const { return stats_; }
  size_t BytesDelivered(AppId app) const;
  uint64_t SocketErrors(AppId app) const;

  // Snapshot support: sockets, in-flight TX and the retransmit backlog (the
  // retransmit and RX-injection timers are the engine's records).
  template <class Ar>
  void Serialize(Ar& ar);

  // Retransmits (a: the frame id) and channel-model RX injections (a: the
  // app, b: the bytes), then the domain's kinds.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;
  std::string CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const override;

 private:
  struct SockPacket {
    WifiFrame frame;
    Task* task;
    size_t resp_bytes;
    DurationNs resp_delay;
    int resp_count;
    TimeNs enqueue_time;
    int retries = 0;  // transmission attempts already lost
  };

  // A socket is a FairQueue lane: its TX packets, its byte credit (the
  // fairness key: airtime used, TX and RX), the responses the channel still
  // owes it (in-flight request/response exchanges; a balloon stays open
  // while any are outstanding), and its last activity. The NIC adds these.
  struct SocketState {
    WifiPowerState vstate;  // virtualised NIC power state for the sandbox
    size_t bytes_delivered = 0;
    uint64_t errors = 0;  // socket errors delivered (retransmit gave up)
  };
  using Sockets = FairQueue<SockPacket, SocketState>;

  void Pump();
  void OnFrameDone(const WifiFrameDone& done);
  // Size of |app|'s head TX packet: the airtime it loses while the owner
  // holds the NIC. 0 for a sandboxed contender that only awaits RX — it has
  // no packet to displace.
  size_t HeadBytes(AppId app);
  void DispatchFrom(AppId app);
  // A TX frame was lost on the air: re-enqueue it at the head of its socket
  // after a capped exponential backoff, or give up and deliver a socket
  // error once the retry budget is spent.
  void HandleTxLoss(SockPacket p);
  void DeliverSocketError(const SockPacket& p);
  enum : uint8_t { kRetransmit = kDomainEventKinds, kRxInject, kNetEventKinds };

  WifiDevice* device_;
  Kernel* kernel_;
  NetConfig config_;

  Sockets socks_;
  // Our TX frames on the NIC, keyed by frame id: at most one at a time, so
  // a non-empty table means the NIC queue is occupied by us.
  std::unordered_map<uint64_t, SockPacket> tx_in_flight_;
  uint64_t next_frame_id_ = 1;

  double penalty_bytes_ = 0.0;  // lost sharing opportunity during the balloon
  WifiPowerState global_state_;

  // Lost TX frames sitting out their retransmit backoff, keyed by frame id;
  // each has its kRetransmit record pending.
  std::map<uint64_t, SockPacket> pending_retx_;

  Stats stats_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_NET_STACK_H_
