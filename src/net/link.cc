#include "net/link.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

namespace {

// In-flight transfers across every link (queue-depth gauge).
obs::Gauge& active_transfers_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("net.link.active_transfers");
  return g;
}

}  // namespace

Link::Link(Simulator& sim, Params params) : sim_(sim), params_(std::move(params)) {
  MFHTTP_CHECK(params_.quantum_ms > 0);
  MFHTTP_CHECK(params_.latency_ms >= 0);
}

Link::~Link() {
  // Transfers abandoned with the link leave the in-flight gauge otherwise.
  active_transfers_gauge().sub(static_cast<std::int64_t>(transfers_.size()));
}

Link::TransferId Link::submit(Bytes size, ProgressFn on_progress, int priority) {
  MFHTTP_CHECK(size >= 0);
  MFHTTP_CHECK(on_progress != nullptr);
  TransferId id = next_id_++;
  static obs::Counter& submitted = obs::metrics().counter("net.link.transfers_total");
  submitted.inc();
  active_transfers_gauge().add(1);
  transfers_.emplace(id, Transfer{size, std::move(on_progress), next_order_++, priority});
  sim_.schedule_after(params_.latency_ms, [this, id] {
    auto it = transfers_.find(id);
    if (it == transfers_.end()) return;  // cancelled during latency
    if (it->second.remaining == 0) {
      ProgressFn cb = std::move(it->second.on_progress);
      transfers_.erase(it);
      note_transfer_completed();
      cb(0, true);
      return;
    }
    it->second.state = State::kStarted;
    arm_tick();
  });
  return id;
}

bool Link::cancel(TransferId id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end() || it->second.state >= State::kCompleted) return false;
  if (dispatching_) {
    it->second.state = State::kCancelled;
    retired_.push_back(it);
  } else {
    transfers_.erase(it);
  }
  static obs::Counter& cancelled =
      obs::metrics().counter("net.link.transfers_cancelled_total");
  cancelled.inc();
  active_transfers_gauge().sub(1);
  return true;
}

void Link::note_transfer_completed() {
  static obs::Counter& completed =
      obs::metrics().counter("net.link.transfers_completed_total");
  completed.inc();
  active_transfers_gauge().sub(1);
}

void Link::arm_tick() {
  if (tick_event_ != Simulator::kInvalidEvent && sim_.pending(tick_event_)) return;
  tick_event_ = sim_.schedule_after(params_.quantum_ms, [this] { tick(); });
}

void Link::tick() {
  tick_event_ = Simulator::kInvalidEvent;
  const TimeMs now = sim_.now();
  const TimeMs quantum_start = now - params_.quantum_ms;
  double budget =
      params_.bandwidth.bytes_between(quantum_start, now) + carry_bytes_;

  // Started transfers: priority first (kFifo serving order), then FIFO.
  active_.clear();
  for (auto it = transfers_.begin(); it != transfers_.end(); ++it)
    if (it->second.state == State::kStarted) active_.push_back(it);
  std::sort(active_.begin(), active_.end(), [](auto a, auto b) {
    if (a->second.priority != b->second.priority)
      return a->second.priority > b->second.priority;
    return a->second.order < b->second.order;
  });

  deliveries_.clear();
  auto give = [&](TransferTable::iterator it, double amount) {
    Transfer& t = it->second;
    auto grant = static_cast<Bytes>(amount);
    grant = std::min(grant, t.remaining);
    if (grant <= 0) return 0.0;
    t.remaining -= grant;
    delivered_total_ += grant;
    deliveries_.push_back({it, grant, t.remaining == 0});
    if (t.remaining == 0) {
      t.state = State::kCompleted;
      retired_.push_back(it);
      note_transfer_completed();
    }
    return static_cast<double>(grant);
  };

  Bytes quantum_delivered = 0;
  if (params_.sharing == Sharing::kFifo) {
    for (auto it : active_) {
      if (budget < 1) break;
      double used = give(it, budget);
      budget -= used;
      quantum_delivered += static_cast<Bytes>(used);
    }
  } else {
    // Water-filling fair share: repeatedly split remaining budget among
    // transfers that still want bytes (compacting active_ in place).
    while (budget >= 1 && !active_.empty()) {
      double share = budget / static_cast<double>(active_.size());
      if (share < 1) share = 1;  // avoid infinite splitting
      double spent = 0;
      std::size_t still = 0;
      for (auto it : active_) {
        if (budget - spent < 1) break;
        double used = give(it, std::min(share, budget - spent));
        spent += used;
        if (it->second.remaining > 0) active_[still++] = it;
      }
      active_.resize(still);
      budget -= spent;
      quantum_delivered += static_cast<Bytes>(spent);
      if (spent < 1) break;  // nobody could take more
    }
  }
  // Carry only the sub-byte fraction: whole bytes left over mean the link
  // genuinely idled for part of the quantum, and idle capacity is not banked.
  carry_bytes_ = budget - static_cast<double>(static_cast<Bytes>(budget));

  if (quantum_delivered > 0) {
    static obs::Counter& delivered =
        obs::metrics().counter("net.link.bytes_delivered_total");
    delivered.inc(static_cast<std::uint64_t>(quantum_delivered));
  }
  if (params_.record_consumption && quantum_delivered > 0)
    consumption_log_.emplace_back(quantum_start, quantum_delivered);

  // Fire callbacks in grant order. Callbacks may submit or cancel transfers
  // on this link; a transfer cancelled mid-dispatch (itself or a sibling)
  // keeps its table node, so the running callback stays alive, but gets no
  // further deliveries. Completed transfers keep all their deliveries
  // (cancel() on them reports false), including non-final chunks from
  // fair-share rounds.
  dispatching_ = true;
  for (const Delivery& d : deliveries_) {
    Transfer& t = d.it->second;
    if (t.state != State::kCancelled) t.on_progress(d.bytes, d.complete);
  }
  dispatching_ = false;
  for (auto it : retired_) transfers_.erase(it);
  retired_.clear();

  bool any_started = std::any_of(transfers_.begin(), transfers_.end(), [](auto& kv) {
    return kv.second.state == State::kStarted;
  });
  if (any_started)
    arm_tick();
  else
    carry_bytes_ = 0;  // idle link does not bank capacity
}

}  // namespace mfhttp
