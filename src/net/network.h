// Simulated datagram network: hosts attach one endpoint each; packets incur
// a fixed propagation latency plus a serialization delay proportional to
// size, and may be dropped (probabilistically, or because a host is down —
// used by the crash-recovery experiments).
//
// The model is the paper's testbed, one unswitched 10 Mbit/s Ethernet;
// shared-medium contention is not modeled because the benchmark load never
// approaches saturation.
//
// A packet carries its envelope by pointer: the sender allocates the
// envelope once, and the pointer passes through the delivery slot and the
// receiver's rx channel without the envelope moving. The fault injector's
// duplicate is the one copy (proto::Envelope counts it).
//
// Fault injection: NetworkParams::faults optionally names a fault::FaultPlan
// (seeded per-link loss, duplication, bounded reordering, partitions with
// heal times). Without a plan the Send path is byte-identical to a network
// built before fault injection existed — no extra random draws, no extra
// scheduling — so calibrated benchmark numbers do not move.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/plan.h"
#include "src/proto/messages.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace net {

// Host number on the simulated network; assigned by Network::AttachHost.
struct Address {
  int host = -1;

  friend bool operator==(const Address&, const Address&) = default;
};

struct Packet {
  Address src;
  Address dst;
  std::unique_ptr<proto::Envelope> envelope;  // never null
};

struct NetworkParams {
  double loss_rate = 0.0;  // per-packet drop probability
  // Optional deterministic fault plan (loss, duplication, reordering,
  // partitions); null or a disabled plan leaves the fast path untouched.
  std::shared_ptr<const fault::FaultPlan> faults;
};

class Network {
 public:
  Network(sim::Simulator& simulator, NetworkParams params, uint64_t seed = 1)
      : simulator_(simulator), params_(params), rng_(seed) {
    if (params_.faults != nullptr && params_.faults->enabled()) {
      injector_ = std::make_unique<fault::FaultInjector>(*params_.faults);
    }
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attach a new host; returns its address. The host reads packets from the
  // returned channel (owned by the Network).
  Address AttachHost();

  sim::Channel<Packet>& Rx(Address address);

  // Inject a packet. Delivery is scheduled after latency + size/bandwidth,
  // unless the packet is lost or either end is down.
  void Send(Packet packet);

  // Crash simulation: a down host neither sends nor receives.
  void SetHostUp(Address address, bool up);
  bool IsHostUp(Address address) const;

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t packets_duplicated() const { return packets_duplicated_; }

  // Null when no fault plan is active.
  const fault::FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  struct Host {
    std::unique_ptr<sim::Channel<Packet>> rx;
    bool up = true;
  };

  // In-flight packets live in pooled slots so the delivery closure
  // captures only {this, slot} — small enough for std::function's inline
  // buffer, i.e. no heap allocation per packet in flight. Slots are owned by
  // the arena and recycled through an intrusive free list at delivery.
  struct PacketSlot {
    Packet packet;
    uint64_t send_span = 0;
    PacketSlot* next = nullptr;
  };

  PacketSlot* AcquireSlot();
  void ReleaseSlot(PacketSlot* slot);
  void Deliver(Packet packet, sim::Duration delay);
  void DeliverSlot(PacketSlot* slot);

  sim::Simulator& simulator_;
  NetworkParams params_;
  sim::Rng rng_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<Host> hosts_;
  std::vector<std::unique_ptr<PacketSlot>> slot_arena_;
  PacketSlot* free_slots_ = nullptr;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t packets_duplicated_ = 0;
};

}  // namespace net

#endif  // SRC_NET_NETWORK_H_
