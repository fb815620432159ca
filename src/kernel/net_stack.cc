#include "src/kernel/net_stack.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

NetStack::NetStack(Simulator* sim, WifiDevice* device, Kernel* kernel, NetConfig config)
    : ResourceDomain(sim, HwComponent::kWifi, config.drain_timeout),
      device_(device), kernel_(kernel), config_(config) {
  device_->set_on_frame_done([this](const WifiFrameDone& d) { OnFrameDone(d); });
}

NetStack::Socket& NetStack::SockFor(AppId app) { return socks_[app]; }

void NetStack::Send(Task* task, const Action& action) {
  Socket& s = SockFor(task->app());
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

AppId NetStack::BestPendingApp(bool exclude_owner) const {
  AppId best = kNoApp;
  double best_credit = std::numeric_limits<double>::infinity();
  for (const auto& [app, s] : socks_) {
    // Queued TX demands the medium; so does a sandboxed app's outstanding
    // reception (its balloon must cover the responses, §4.2/§5).
    const bool wants_nic = !s.q.empty() || (s.sandboxed && s.expected_rx > 0);
    if (!wants_nic) {
      continue;
    }
    if (exclude_owner && app == balloon_owner()) {
      continue;
    }
    if (s.credit_bytes < best_credit) {
      best_credit = s.credit_bytes;
      best = app;
    }
  }
  return best;
}

size_t NetStack::HeadBytes(AppId app) {
  const Socket& s = SockFor(app);
  return s.q.empty() ? 0 : s.q.front().frame.bytes;
}

bool NetStack::Retirable(AppId app, TimeNs cutoff) const {
  if (!ResourceDomain::Retirable(app, cutoff)) {
    return false;
  }
  auto it = socks_.find(app);
  if (it == socks_.end()) {
    return true;
  }
  const Socket& s = it->second;
  if (!s.q.empty() || s.expected_rx != 0 ||
      (s.last_activity >= 0 && cutoff - s.last_activity <= kRecency)) {
    return false;
  }
  for (const auto& [frame_id, p] : tx_in_flight_) {
    if (p.frame.app == app) {
      return false;
    }
  }
  for (const auto& [frame_id, retx] : pending_retx_) {
    if (retx.pkt.frame.app == app) {
      return false;
    }
  }
  for (const RxInject& e : rx_events_) {
    if (e.app == app && sim_->IsPending(e.event)) {
      return false;
    }
  }
  return true;
}

double NetStack::MinRecentCompetitorCredit(AppId owner) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [app, s] : socks_) {
    if (app == owner) {
      continue;
    }
    const bool recent =
        s.last_activity >= 0 && sim_->Now() - s.last_activity <= kRecency;
    if (!s.q.empty() || recent) {
      best = std::min(best, s.credit_bytes);
    }
  }
  return best;
}

void NetStack::DispatchFrom(AppId app) {
  Socket& s = SockFor(app);
  PSBOX_CHECK(!s.q.empty());
  SockPacket p = s.q.front();
  s.q.pop_front();
  const DurationNs lat = sim_->Now() - p.enqueue_time;
  stats_.total_tx_latency += lat;
  stats_.max_tx_latency = std::max(stats_.max_tx_latency, lat);
  ++stats_.tx_frames;
  our_tx_pending_ = true;
  tx_in_flight_[p.frame.id] = p;
  device_->SubmitFrame(p.frame);
}

void NetStack::Pump() {
  while (true) {
    // Only one TX of ours on the NIC at a time; the medium may also be busy
    // with RX, which we cannot pre-empt.
    const bool nic_free = !our_tx_pending_ && !device_->busy() &&
                          device_->queued_frames() == 0;
    switch (balloon_phase()) {
      case BalloonPhase::kIdle: {
        if (!nic_free) {
          return;
        }
        AppId best = BestPendingApp(false);
        if (best == kNoApp) {
          return;
        }
        if (!SockFor(best).sandboxed && SockFor(best).q.empty()) {
          return;  // nothing dispatchable (awaiting-RX candidates are boxed)
        }
        if (SockFor(best).sandboxed) {
          const double competitor = MinRecentCompetitorCredit(best);
          if (SockFor(best).credit_bytes >
              competitor + static_cast<double>(config_.switch_lead_bytes)) {
            // Still repaying the previous balloon; serve someone else or
            // hold the NIC idle until the competition catches up.
            AppId fallback = kNoApp;
            double fallback_credit = std::numeric_limits<double>::infinity();
            for (const auto& [app, sock] : socks_) {
              if (sock.q.empty() || sock.sandboxed) {
                continue;
              }
              if (sock.credit_bytes < fallback_credit) {
                fallback_credit = sock.credit_bytes;
                fallback = app;
              }
            }
            if (fallback == kNoApp) {
              if (retry_event_ == kInvalidEventId) {
                retry_event_ = sim_->ScheduleAfter(2 * kMillisecond, [this] {
                  retry_event_ = kInvalidEventId;
                  Pump();
                });
              }
              return;
            }
            best = fallback;
          } else {
            BalloonRequest(best, SockFor(best).box);
            penalty_bytes_ = 0.0;
            continue;
          }
        }
        DispatchFrom(best);
        return;
      }
      case BalloonPhase::kDrainOthers: {
        if (!nic_free) {
          return;
        }
        // Balloon-in: apply the sandbox's virtualised NIC power state before
        // the observer looks.
        Socket& s = SockFor(balloon_owner());
        if (config_.virtualize_power_state) {
          global_state_ = device_->power_state();
          device_->SetPowerState(s.vstate);
        }
        BalloonServe();
        continue;
      }
      case BalloonPhase::kServe: {
        Socket& s = SockFor(balloon_owner());
        const AppId contender = BestPendingApp(/*exclude_owner=*/true);
        const bool grant_over = sim_->Now() - balloon_start() >= config_.min_grant;
        // The owner's NIC session covers queued TX, in-flight TX, responses
        // the channel still owes it, and its power-save tail afterwards.
        const bool owner_active =
            !s.q.empty() || our_tx_pending_ || s.expected_rx > 0;
        const TimeNs tail_deadline =
            s.last_activity >= 0
                ? s.last_activity + device_->power_state().ps_timeout
                : sim_->Now();
        const bool in_tail = !owner_active && sim_->Now() < tail_deadline;
        const bool owner_idle = !owner_active && !in_tail;
        const bool lead_exceeded =
            contender != kNoApp &&
            s.credit_bytes - SockFor(contender).credit_bytes >
                static_cast<double>(config_.switch_lead_bytes);
        // Release rules: (a) the owner went fully idle — its power-save tail
        // has expired, so the observation window is complete; or (b) a
        // credit blow-out while the owner still has TX queued — cutting it
        // then loses no energy (its next balloon resumes the transfer). An
        // owner awaiting responses or sitting in its tail is never cut:
        // those are its own reception and lingering power state (§4.1), and
        // competitors are compensated through penalty_bytes_.
        const bool owner_transmitting = !s.q.empty() || our_tx_pending_;
        if (owner_idle ||
            (contender != kNoApp && grant_over && lead_exceeded &&
             owner_transmitting)) {
          BalloonRelease();
          continue;
        }
        if (!nic_free || s.q.empty()) {
          if (contender != kNoApp && !grant_over) {
            const TimeNs when = balloon_start() + config_.min_grant;
            SchedulePumpAt(std::max(when, sim_->Now()));
          } else if (in_tail && contender == kNoApp) {
            // Come back when the tail expires to release the idle balloon.
            SchedulePumpAt(std::max(tail_deadline, sim_->Now()));
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
        if (our_tx_pending_) {
          return;
        }
        Socket& s = SockFor(balloon_owner());
        // Balloon-out: restore the global power state, charge the lost
        // opportunities to the sandboxed app.
        if (config_.virtualize_power_state) {
          s.vstate = device_->power_state();
          device_->SetPowerState(global_state_);
        }
        if (config_.charge_lost_opportunity) {
          s.credit_bytes += penalty_bytes_;
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
    Socket& s = SockFor(done.frame.app);
    s.bytes_delivered += done.frame.bytes;
    s.last_activity = done.end_time;
    // Reception is airtime the app consumed; it counts toward its credit so
    // heavy downloaders cannot hide behind tiny TX requests.
    s.credit_bytes += static_cast<double>(done.frame.bytes);
    // RX landing inside the app's own balloon while others wait is likewise
    // a lost sharing opportunity; the charge is capped by what the displaced
    // competitor could actually have sent.
    if ((balloon_phase() == BalloonPhase::kServe ||
         balloon_phase() == BalloonPhase::kDrainOwner) &&
        done.frame.app == balloon_owner()) {
      const AppId contender = BestPendingApp(/*exclude_owner=*/true);
      if (contender != kNoApp) {
        penalty_bytes_ += static_cast<double>(
            std::min(done.frame.bytes, HeadBytes(contender)));
      }
    }
    if (s.expected_rx > 0) {
      --s.expected_rx;
    }
    kernel_->DeliverRx(done.frame.app, done.frame.bytes);
    Pump();
    return;
  }
  auto it = tx_in_flight_.find(done.frame.id);
  PSBOX_CHECK(it != tx_in_flight_.end());
  const SockPacket p = it->second;
  tx_in_flight_.erase(it);
  our_tx_pending_ = false;
  Socket& s = SockFor(done.frame.app);
  // Airtime was burned whether or not the frame arrived; it always counts
  // toward the sender's credit (lost frames are not free).
  s.credit_bytes += static_cast<double>(done.frame.bytes);
  s.last_activity = done.end_time;
  if (!done.delivered) {
    HandleTxLoss(p);
    Pump();
    return;
  }
  s.bytes_delivered += done.frame.bytes;
  if (p.resp_bytes > 0 && p.resp_count > 0) {
    // Channel model: the peer answers with |resp_count| chunks spaced
    // |resp_delay| apart (a streaming download when > 1).
    s.expected_rx += p.resp_count;
    const size_t resp_bytes = p.resp_bytes;
    const AppId app = done.frame.app;
    for (int i = 0; i < p.resp_count; ++i) {
      ScheduleRxInject(
          sim_->Now() + std::max<DurationNs>(p.resp_delay, 0) * (i + 1), app,
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
  ScheduleRetx(sim_->Now() + backoff, p);
}

void NetStack::SchedulePumpAt(TimeNs when) {
  std::erase_if(pump_events_, [this](EventId e) { return !sim_->IsPending(e); });
  pump_events_.push_back(sim_->ScheduleAt(when, [this] { Pump(); }));
}

void NetStack::ScheduleRetx(TimeNs when, const SockPacket& p) {
  pending_retx_[p.frame.id].pkt = p;
  ArmRetx(p.frame.id, when);
}

void NetStack::ArmRetx(uint64_t frame_id, TimeNs when) {
  pending_retx_.at(frame_id).event = sim_->ScheduleAt(when, [this, frame_id] {
    auto it = pending_retx_.find(frame_id);
    PSBOX_CHECK(it != pending_retx_.end());
    const SockPacket pkt = it->second.pkt;
    pending_retx_.erase(it);
    SockFor(pkt.frame.app).q.push_front(pkt);
    Pump();
  });
}

void NetStack::ScheduleRxInject(TimeNs when, AppId app, size_t bytes) {
  std::erase_if(rx_events_,
                [this](const RxInject& e) { return !sim_->IsPending(e.event); });
  RxInject inj;
  inj.app = app;
  inj.bytes = bytes;
  inj.event =
      sim_->ScheduleAt(when, [this, app, bytes] { InjectRx(app, bytes); });
  rx_events_.push_back(inj);
}

void NetStack::DeliverSocketError(const SockPacket& p) {
  Socket& s = SockFor(p.frame.app);
  ++s.errors;
  ++stats_.socket_errors;
  // The expected responses will never come; retire the task's in-flight unit
  // so the submitter unblocks and can observe the error.
  if (p.task != nullptr) {
    --p.task->net_inflight;
    kernel_->DeliverNetDone(p.task);
  }
}

void NetStack::SetSandboxed(AppId app, PsboxId box) {
  Socket& s = SockFor(app);
  s.sandboxed = true;
  s.box = box;
  Pump();
}

void NetStack::ClearSandboxed(AppId app) {
  Socket& s = SockFor(app);
  s.sandboxed = false;
  if (balloon_owner() == app) {
    if (balloon_phase() == BalloonPhase::kDrainOthers) {
      BalloonCancel();
    } else if (balloon_phase() == BalloonPhase::kServe) {
      BalloonRelease();
    }
  }
  Pump();
}

void NetStack::OnDrainTimeout() {
  Socket& s = SockFor(balloon_owner());
  if (balloon_phase() == BalloonPhase::kDrainOwner &&
      config_.virtualize_power_state) {
    s.vstate = device_->power_state();
    device_->SetPowerState(global_state_);
  }
  if (config_.charge_lost_opportunity) {
    s.credit_bytes += penalty_bytes_;
  }
  penalty_bytes_ = 0.0;
  BalloonAbort();
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
  ar.Map(socks_, 8, [&](AppId& app, Socket& s) {
    ar.I64(app);
    ar.Seq(s.q, 8, packet);
    ar.F64(s.credit_bytes);
    ar.Bool(s.sandboxed);
    ar.I64(s.box);
    s.vstate.Serialize(ar);
    ar.U64(s.bytes_delivered);
    ar.I64(s.expected_rx);
    ar.I64(s.last_activity);
    ar.U64(s.errors);
  });
  ar.Map(tx_in_flight_, 8, [&](uint64_t& id, SockPacket& p) {
    packet(p);
    id = p.frame.id;
  });
  ar.U64(next_frame_id_);
  ar.Bool(our_tx_pending_);
  ar.F64(penalty_bytes_);
  global_state_.Serialize(ar);
  ar.U64(stats_.tx_frames);
  ar.U64(stats_.rx_frames);
  ar.I64(stats_.total_tx_latency);
  ar.I64(stats_.max_tx_latency);
  ar.U64(stats_.tx_retransmits);
  ar.U64(stats_.tx_failed);
  ar.U64(stats_.socket_errors);
  ar.Event(retry_event_, [this](TimeNs when) {
    retry_event_ = sim_->ScheduleAt(when, [this] {
      retry_event_ = kInvalidEventId;
      Pump();
    });
  });
  ar.Map(pending_retx_, 16, [&](uint64_t& id, PendingRetx& pr) {
    packet(pr.pkt);
    id = pr.pkt.frame.id;
    ar.Event(pr.event, [this, id](TimeNs when) { ArmRetx(id, when); });
  });
  ar.PendingEvents(rx_events_, 16, [&](RxInject& inj) {
    ar.I64(inj.app);
    ar.U64(inj.bytes);
    ar.Event(inj.event, [this, app = inj.app, bytes = inj.bytes](TimeNs when) {
      ScheduleRxInject(when, app, static_cast<size_t>(bytes));
    });
  });
  ar.PendingEvents(pump_events_, 10, [&](EventId& e) {
    ar.Event(e, [this](TimeNs when) { SchedulePumpAt(when); });
  });
}

template void NetStack::Serialize(SnapshotWriter&);
template void NetStack::Serialize(SnapshotReader&);

size_t NetStack::BytesDelivered(AppId app) const {
  auto it = socks_.find(app);
  return it == socks_.end() ? 0 : it->second.bytes_delivered;
}

uint64_t NetStack::SocketErrors(AppId app) const {
  auto it = socks_.find(app);
  return it == socks_.end() ? 0 : it->second.errors;
}

}  // namespace psbox
