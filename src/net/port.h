// Output port: a queueing discipline in front of a transmitter.
//
// The port stamps arriving packets (enqueued_at), offers them to its
// Scheduler, and models store-and-forward transmission: one packet in
// flight at a time, completing after size/rate seconds, then delivered to
// the peer node.  Waiting time (dequeue instant minus enqueued_at) is
// accumulated into the packet's queueing_delay — the statistic all of the
// paper's tables report.
//
// Drop accounting rides the scheduler's DropSink, installed once at
// construction: every victim (the offered packet under tail drop, a
// different one under pushout, a stale packet discarded at dequeue)
// increments drops() and fans out to the additive drop hooks, then
// returns to its PacketPool.  The offered packet's enqueued_at is stamped
// before the scheduler sees it, so its stamp is the same whether it is
// accepted, immediately evicted, or evicts somebody else.
//
// A non-positive rate means "infinitely fast" (the paper's host-switch
// links): the packet bypasses the queue and is delivered immediately —
// still stamped, so tracers and hooks downstream never observe an
// uninitialised arrival time on host-switch hops.
//
// The two per-packet events — transmit-complete and the eligibility
// retry of non-work-conserving disciplines — are persistent sim::Timers:
// the closure is built once at construction and every (re)schedule is a
// pure key insert.  Moving the retry earlier is a single re-arm (the
// pending arm is superseded in place), not a cancel+schedule pair.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/handoff.h"
#include "net/node.h"
#include "net/packet.h"
#include "sched/scheduler.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace ispn::net {

class Port {
 public:
  /// Called for every packet dropped at this port (before destruction).
  using DropHook = std::function<void(const Packet&, sim::Time)>;
  /// Called when a packet finishes transmission: (packet, now).
  using TxHook = std::function<void(const Packet&, sim::Time)>;

  /// `rate <= 0` models an infinitely fast link (no queueing).
  Port(sim::Simulator& sim, sim::Rate rate,
       std::unique_ptr<sched::Scheduler> scheduler, Node* peer);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Accepts a packet for transmission towards the peer.
  void send(PacketPtr p);

  /// Hooks are additive: several observers (statistics, measurement,
  /// tracing) may watch the same port.
  void add_drop_hook(DropHook hook) { on_drop_.push_back(std::move(hook)); }
  void add_tx_hook(TxHook hook) { on_tx_.push_back(std::move(hook)); }
  /// Separate from add_drop_hook: a link-failure casualty is not a buffer
  /// drop, and observers (per-flow stats) attribute the two to different
  /// ledger buckets.
  void add_link_drop_hook(DropHook hook) {
    on_link_drop_.push_back(std::move(hook));
  }
  /// Third bucket: packets destroyed by an INJECTED transient fault (the
  /// Bernoulli loss episodes of the fault plane).  They consumed the wire
  /// — transmitted() and the tx hooks count them — but never arrive.
  void add_fault_drop_hook(DropHook hook) {
    on_fault_drop_.push_back(std::move(hook));
  }

  /// Routes transmit-completions through a cross-domain mailbox instead
  /// of delivering inline to the peer (sharded runs; see net/handoff.h).
  /// The mailbox is not owned.
  void set_handoff(LinkMailbox* mailbox) { handoff_ = mailbox; }

  /// Takes the link up or down.  Going down cancels the in-flight
  /// transmission (the packet is lost mid-wire), flushes the queue, and
  /// refuses future sends until the link recovers; every casualty is
  /// reported to the link-drop hooks.  Going up resumes service from an
  /// empty queue.
  void set_link_up(bool up, sim::Time now);
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// Re-rates the transmitter (capacity brown-out / restore).  The packet
  /// already on the wire completes at its committed instant; packets
  /// dequeued afterwards transmit at the new rate.  Only meaningful on
  /// finite-rate ports, and the new rate must stay positive — a dead link
  /// is set_link_up(false), not rate 0.
  void set_rate(sim::Rate rate);

  /// Arms (prob > 0) or disarms (prob <= 0) per-packet Bernoulli loss on
  /// this direction.  The draw sequence comes from a dedicated Rng
  /// (re)seeded here, so an episode's drops are a function of (seed,
  /// stream, packets transmitted since the episode began) — identical
  /// across shard counts.
  void set_loss(double prob, std::uint64_t seed, std::uint64_t stream);
  [[nodiscard]] double loss_prob() const { return loss_prob_; }

  [[nodiscard]] sim::Rate rate() const { return rate_; }
  [[nodiscard]] Node& peer() const { return *peer_; }
  [[nodiscard]] sched::Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] bool busy() const { return busy_; }

  [[nodiscard]] std::uint64_t transmitted() const { return transmitted_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  /// Packets lost to link failure (in flight, queued at failure, or
  /// offered while down).  Never overlaps drops().
  [[nodiscard]] std::uint64_t link_drops() const { return link_drops_; }
  /// Packets destroyed by injected loss episodes.  Never overlaps either
  /// drops() or link_drops().
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }
  [[nodiscard]] sim::Bits bits_sent() const { return bits_sent_; }

  /// Link utilisation over [0, now] (bits sent / capacity).
  [[nodiscard]] double utilization(sim::Time now) const;

 private:
  void try_start();
  void complete();
  void link_drop(PacketPtr p, sim::Time now);

  sim::Simulator& sim_;
  sim::Rate rate_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  Node* peer_;
  LinkMailbox* handoff_ = nullptr;
  std::vector<DropHook> on_drop_;
  std::vector<DropHook> on_link_drop_;
  std::vector<DropHook> on_fault_drop_;
  std::vector<TxHook> on_tx_;

  PacketPtr in_flight_;
  bool busy_ = false;
  bool link_up_ = true;
  sim::Timer complete_timer_;  ///< in-flight transmission completion
  sim::Timer retry_timer_;     ///< eligibility poll
  std::uint64_t transmitted_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t link_drops_ = 0;
  std::uint64_t fault_drops_ = 0;
  sim::Bits bits_sent_ = 0;
  double loss_prob_ = 0;  ///< injected Bernoulli loss; 0 = off
  sim::Rng loss_rng_;     ///< (re)seeded by set_loss per episode
};

}  // namespace ispn::net
