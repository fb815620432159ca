#include "src/kernel/net_stack.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

// Apps active within this window count as competitors of a sandboxed app.
constexpr DurationNs kNetRecency = 200 * kMillisecond;
// How long a held NIC stays idle before the pump retries.
constexpr DurationNs kNetHold = 2 * kMillisecond;

NetStack::NetStack(Simulator* sim, WifiDevice* device, Kernel* kernel, NetConfig config)
    : ResourceDomain(sim, HwComponent::kWifi, /*drain_timeout=*/0,
                     kNetEventKinds, 1u << kRetransmit),
      device_(device), kernel_(kernel), config_(config),
      socks_(sim, "wifi queue", kNetRecency,
             static_cast<double>(config.switch_lead_bytes), kNetHold,
             [this] { Pump(); }) {
  device_->set_on_frame_done([this](const WifiFrameDone& d) { OnFrameDone(d); });
}

void NetStack::Send(Task* task, const Action& action) {
  Sockets::Lane& s = socks_[task->app()];
  WifiFrame frame;
  frame.id = next_frame_id_++;
  frame.app = task->app();
  frame.bytes = action.bytes;
  frame.is_rx = false;
  ++task->net_inflight;
  s.q.push_back(SockPacket{frame, task, action.response_bytes, action.response_delay,
                           action.response_count, sim_->Now()});
  Pump();
}

void NetStack::InjectRx(AppId app, size_t bytes) {
  // Reception defers to nobody: straight to the NIC (§5 limitation).
  WifiFrame frame;
  frame.id = next_frame_id_++;
  frame.app = app;
  frame.bytes = bytes;
  frame.is_rx = true;
  ++stats_.rx_frames;
  device_->SubmitFrame(frame);
}

size_t NetStack::HeadBytes(AppId app) {
  const Sockets::Lane& s = socks_[app];
  return s.q.empty() ? 0 : s.q.front().frame.bytes;
}

bool NetStack::Retirable(AppId app, TimeNs cutoff) const {
  if (!ResourceDomain::Retirable(app, cutoff) || !socks_.Quiet(app, cutoff)) {
    return false;
  }
  for (const auto& [frame_id, p] : tx_in_flight_) {
    if (p.frame.app == app) {
      return false;
    }
  }
  for (const auto& [frame_id, p] : pending_retx_) {
    if (p.frame.app == app) {
      return false;
    }
  }
  return sim_->FindPending(target_, kRxInject, static_cast<uint64_t>(app)) ==
         kInvalidEventId;
}

void NetStack::DispatchFrom(AppId app) {
  Sockets::Lane& s = socks_[app];
  PSBOX_CHECK(!s.q.empty());
  SockPacket p = s.q.front();
  s.q.pop_front();
  const DurationNs lat = sim_->Now() - p.enqueue_time;
  stats_.total_tx_latency += lat;
  stats_.max_tx_latency = std::max(stats_.max_tx_latency, lat);
  ++stats_.tx_frames;
  tx_in_flight_[p.frame.id] = p;
  device_->SubmitFrame(p.frame);
}

void NetStack::Pump() {
  while (true) {
    // Only one TX of ours on the NIC at a time; the medium may also be busy
    // with RX, which we cannot pre-empt.
    const bool nic_free = tx_in_flight_.empty() && !device_->busy() &&
                          device_->queued_frames() == 0;
    switch (balloon_phase()) {
      case BalloonPhase::kIdle: {
        if (!nic_free) {
          return;
        }
        const Sockets::Pick pick = socks_.Next();
        switch (pick.verdict) {
          case Sockets::Verdict::kIdle:
            return;
          case Sockets::Verdict::kHold:
            socks_.Hold();
            return;
          case Sockets::Verdict::kBalloon:
            BalloonRequest(pick.app, socks_[pick.app].box);
            penalty_bytes_ = 0.0;
            continue;
          case Sockets::Verdict::kDispatch:
            DispatchFrom(pick.app);
            return;
        }
        return;
      }
      case BalloonPhase::kDrainOthers: {
        if (!nic_free) {
          return;
        }
        // Balloon-in: apply the sandbox's virtualised NIC power state before
        // the domain serves the balloon.
        global_state_ = device_->power_state();
        device_->SetPowerState(socks_[balloon_owner()].extra.vstate);
        BalloonServe();
        continue;
      }
      case BalloonPhase::kServe: {
        Sockets::Lane& s = socks_[balloon_owner()];
        const AppId contender = socks_.Best(balloon_owner());
        const bool grant_over = sim_->Now() - balloon_start() >= config_.min_grant;
        // The owner's NIC session covers queued TX, in-flight TX, responses
        // the channel still owes it, and its power-save tail afterwards.
        const bool owner_active =
            !s.q.empty() || !tx_in_flight_.empty() || s.owed > 0;
        const TimeNs tail_deadline =
            s.last_seen >= 0 ? s.last_seen + device_->power_state().ps_timeout
                             : sim_->Now();
        const bool in_tail = !owner_active && sim_->Now() < tail_deadline;
        const bool owner_idle = !owner_active && !in_tail;
        const bool lead_exceeded =
            contender != kNoApp &&
            s.served - socks_[contender].served >
                static_cast<double>(config_.switch_lead_bytes);
        // Release rules: (a) the owner went fully idle — its power-save tail
        // has expired, so the observation window is complete; or (b) a
        // credit blow-out while the owner still has TX queued — cutting it
        // then loses no energy (its next balloon resumes the transfer). An
        // owner awaiting responses or sitting in its tail is never cut:
        // those are its own reception and lingering power state (§4.1), and
        // competitors are compensated through penalty_bytes_.
        const bool owner_transmitting = !s.q.empty() || !tx_in_flight_.empty();
        if (owner_idle ||
            (contender != kNoApp && grant_over && lead_exceeded &&
             owner_transmitting)) {
          BalloonRelease();
          continue;
        }
        if (!nic_free || s.q.empty()) {
          if (contender != kNoApp && !grant_over) {
            const TimeNs when = balloon_start() + config_.min_grant;
            socks_.PumpAt(std::max(when, sim_->Now()));
          } else if (in_tail && contender == kNoApp) {
            // Come back when the tail expires to release the idle balloon.
            socks_.PumpAt(std::max(tail_deadline, sim_->Now()));
          }
          // Lost sharing opportunity: a competitor's head packet could have
          // used this free slot (§4.2); its bytes discount the owner.
          if (nic_free && contender != kNoApp) {
            penalty_bytes_ += static_cast<double>(HeadBytes(contender));
          }
          return;
        }
        if (contender != kNoApp) {
          // The owner transmits while a competitor's packet waits: the
          // displaced airtime is a lost opportunity charged to the owner.
          penalty_bytes_ += static_cast<double>(
              std::min(s.q.front().frame.bytes, HeadBytes(contender)));
        }
        DispatchFrom(balloon_owner());
        return;
      }
      case BalloonPhase::kDrainOwner: {
        if (!tx_in_flight_.empty()) {
          return;
        }
        // Balloon-out: the owner parks its power state, the global one
        // returns, and the owner is charged the lost sharing opportunities.
        Sockets::Lane& s = socks_[balloon_owner()];
        s.extra.vstate = device_->power_state();
        device_->SetPowerState(global_state_);
        if (config_.charge_lost_opportunity) {
          s.served += penalty_bytes_;
        }
        penalty_bytes_ = 0.0;
        BalloonFinish();
        continue;
      }
    }
  }
}

void NetStack::OnFrameDone(const WifiFrameDone& done) {
  if (ledger_ != nullptr) {
    ledger_->Add(HwComponent::kWifi, done.frame.app, done.start_time, done.end_time);
  }
  if (done.frame.is_rx) {
    Sockets::Lane& s = socks_[done.frame.app];
    s.extra.bytes_delivered += done.frame.bytes;
    s.last_seen = done.end_time;
    // Reception is airtime the app consumed; it counts toward its credit so
    // heavy downloaders cannot hide behind tiny TX requests.
    s.served += static_cast<double>(done.frame.bytes);
    // RX landing inside the app's own balloon while others wait is likewise
    // a lost sharing opportunity; the charge is capped by what the displaced
    // competitor could actually have sent.
    if ((balloon_phase() == BalloonPhase::kServe ||
         balloon_phase() == BalloonPhase::kDrainOwner) &&
        done.frame.app == balloon_owner()) {
      const AppId contender = socks_.Best(balloon_owner());
      if (contender != kNoApp) {
        penalty_bytes_ += static_cast<double>(
            std::min(done.frame.bytes, HeadBytes(contender)));
      }
    }
    if (s.owed > 0) {
      --s.owed;
    }
    kernel_->DeliverRx(done.frame.app, done.frame.bytes);
    Pump();
    return;
  }
  auto it = tx_in_flight_.find(done.frame.id);
  PSBOX_CHECK(it != tx_in_flight_.end());
  const SockPacket p = it->second;
  tx_in_flight_.erase(it);
  Sockets::Lane& s = socks_[done.frame.app];
  // Airtime was burned whether or not the frame arrived; it always counts
  // toward the sender's credit (lost frames are not free).
  s.served += static_cast<double>(done.frame.bytes);
  s.last_seen = done.end_time;
  if (!done.delivered) {
    HandleTxLoss(p);
    Pump();
    return;
  }
  s.extra.bytes_delivered += done.frame.bytes;
  if (p.resp_bytes > 0 && p.resp_count > 0) {
    // Channel model: the peer answers with |resp_count| chunks spaced
    // |resp_delay| apart (a streaming download when > 1).
    s.owed += p.resp_count;
    const size_t resp_bytes = p.resp_bytes;
    const AppId app = done.frame.app;
    for (int i = 0; i < p.resp_count; ++i) {
      sim_->ScheduleAfter(std::max<DurationNs>(p.resp_delay, 0) * (i + 1),
                          target_, kRxInject, static_cast<uint64_t>(app),
                          resp_bytes);
      kernel_->ExpectRx(p.task, resp_bytes);
    }
    // The task's in-flight unit is retired when the last chunk lands.
    if (p.task != nullptr) {
      p.task->net_inflight += p.resp_count - 1;
    }
  } else if (p.task != nullptr) {
    --p.task->net_inflight;
    kernel_->DeliverNetDone(p.task);
  }
  Pump();
}

void NetStack::HandleTxLoss(SockPacket p) {
  ++p.retries;
  if (p.retries > config_.max_tx_retries) {
    ++stats_.tx_failed;
    RecordRecovery();
    DeliverSocketError(p);
    return;
  }
  // Capped exponential backoff before re-enqueueing: rides out both random
  // loss bursts and link-down windows without hammering the medium.
  DurationNs backoff = config_.retransmit_backoff_base;
  for (int i = 1; i < p.retries && backoff < config_.retransmit_backoff_cap;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, config_.retransmit_backoff_cap);
  ++stats_.tx_retransmits;
  pending_retx_[p.frame.id] = p;
  sim_->ScheduleAfter(backoff, target_, kRetransmit, p.frame.id);
}

void NetStack::OnEvent(uint8_t kind, uint64_t a, uint64_t b) {
  switch (kind) {
    case kRetransmit: {
      auto it = pending_retx_.find(a);
      PSBOX_CHECK(it != pending_retx_.end());
      const SockPacket p = it->second;
      pending_retx_.erase(it);
      socks_[p.frame.app].q.push_front(p);
      Pump();
      return;
    }
    case kRxInject:
      InjectRx(static_cast<AppId>(a), static_cast<size_t>(b));
      return;
    default:
      ResourceDomain::OnEvent(kind, a, b);
  }
}

std::string NetStack::CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const {
  switch (kind) {
    case kRetransmit:
      return pending_retx_.count(a) == 0
                 ? "names frame " + std::to_string(a) +
                       ", which awaits no retransmit"
                 : std::string();
    case kRxInject:
      return a != static_cast<uint64_t>(static_cast<AppId>(a)) ||
                     socks_.Find(static_cast<AppId>(a)) == nullptr
                 ? "names app " + std::to_string(a) + ", which has no socket"
                 : std::string();
    default:
      return ResourceDomain::CheckEvent(kind, a, b);
  }
}

void NetStack::DeliverSocketError(const SockPacket& p) {
  ++socks_[p.frame.app].extra.errors;
  ++stats_.socket_errors;
  // The expected responses will never come; retire the task's in-flight unit
  // so the submitter unblocks and can observe the error.
  if (p.task != nullptr) {
    --p.task->net_inflight;
    kernel_->DeliverNetDone(p.task);
  }
}

void NetStack::SetSandboxed(AppId app, PsboxId box) {
  Sockets::Lane& s = socks_[app];
  s.sandboxed = true;
  s.box = box;
  Pump();
}

void NetStack::ClearSandboxed(AppId app) {
  socks_[app].sandboxed = false;
  if (balloon_owner() == app) {
    if (balloon_phase() == BalloonPhase::kDrainOthers) {
      BalloonCancel();
    } else if (balloon_phase() == BalloonPhase::kServe) {
      BalloonRelease();
    }
  }
  Pump();
}

template <class Ar>
void NetStack::Serialize(Ar& ar) {
  if (!ar.Section("net_stack")) {
    return;
  }
  SerializeDomain(ar);
  auto packet = [&](SockPacket& p) {
    ar.U64(p.frame.id);
    ar.I64(p.frame.app);
    ar.I64(p.frame.socket);
    ar.U64(p.frame.bytes);
    ar.Bool(p.frame.is_rx);
    ar.TaskRef(p.task, *kernel_,
               "net stack packet references unknown task in snapshot");
    ar.U64(p.resp_bytes);
    ar.I64(p.resp_delay);
    ar.I64(p.resp_count);
    ar.I64(p.enqueue_time);
    ar.U32(p.retries);
  };
  socks_.SerializeLanes(ar, packet, [&](Sockets::Lane& s) {
    s.extra.vstate.Serialize(ar);
    ar.U64(s.extra.bytes_delivered);
    ar.I64(s.owed);
    ar.I64(s.last_seen);
    ar.U64(s.extra.errors);
  });
  ar.Map(tx_in_flight_, 8, [&](uint64_t& id, SockPacket& p) {
    packet(p);
    id = p.frame.id;
  });
  ar.U64(next_frame_id_);
  ar.F64(penalty_bytes_);
  global_state_.Serialize(ar);
  ar.U64(stats_.tx_frames);
  ar.U64(stats_.rx_frames);
  ar.I64(stats_.total_tx_latency);
  ar.I64(stats_.max_tx_latency);
  ar.U64(stats_.tx_retransmits);
  ar.U64(stats_.tx_failed);
  ar.U64(stats_.socket_errors);
  ar.Map(pending_retx_, 16, [&](uint64_t& id, SockPacket& p) {
    packet(p);
    id = p.frame.id;
  });
}

template void NetStack::Serialize(SnapshotWriter&);
template void NetStack::Serialize(SnapshotReader&);

size_t NetStack::BytesDelivered(AppId app) const {
  const Sockets::Lane* s = socks_.Find(app);
  return s == nullptr ? 0 : s->extra.bytes_delivered;
}

uint64_t NetStack::SocketErrors(AppId app) const {
  const Sockets::Lane* s = socks_.Find(app);
  return s == nullptr ? 0 : s->extra.errors;
}

}  // namespace psbox
