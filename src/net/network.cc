#include "src/net/network.h"

#include <memory>
#include <string>
#include <utility>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace net {
namespace {

// Every packet pays the propagation and interface latency, plus its
// serialization onto a 10 Mbit/s Ethernet.
constexpr sim::Duration kLatency = sim::Usec(200);
constexpr double kBandwidthBps = 10e6;

}  // namespace

Address Network::AttachHost() {
  Host host;
  host.rx = std::make_unique<sim::Channel<Packet>>(simulator_);
  hosts_.push_back(std::move(host));
  return Address{static_cast<int>(hosts_.size()) - 1};
}

sim::Channel<Packet>& Network::Rx(Address address) {
  CHECK_GE(address.host, 0);
  CHECK_LT(static_cast<size_t>(address.host), hosts_.size());
  return *hosts_[address.host].rx;
}

void Network::Send(Packet packet) {
  CHECK_GE(packet.src.host, 0);
  CHECK_GE(packet.dst.host, 0);
  CHECK_LT(static_cast<size_t>(packet.dst.host), hosts_.size());
  ++packets_sent_;
  uint32_t bytes = proto::WireSize(*packet.envelope);
  bytes_sent_ += bytes;
  TRACE_INSTANT("net.send", packet.src.host,
                "dst=" + std::to_string(packet.dst.host) + " bytes=" + std::to_string(bytes));

  if (!hosts_[packet.src.host].up || !hosts_[packet.dst.host].up) {
    ++packets_dropped_;
    TRACE_INSTANT("net.drop", packet.src.host,
                  "dst=" + std::to_string(packet.dst.host) + " reason=down");
    return;
  }
  if (params_.loss_rate > 0 && rng_.Bernoulli(params_.loss_rate)) {
    ++packets_dropped_;
    TRACE_INSTANT("net.drop", packet.src.host,
                  "dst=" + std::to_string(packet.dst.host) + " reason=loss");
    return;
  }

  sim::Duration serialization =
      static_cast<sim::Duration>(static_cast<double>(bytes) * 8.0 / kBandwidthBps * 1e6);
  sim::Duration delay = kLatency + serialization;

  if (injector_ != nullptr) {
    fault::FaultDecision d =
        injector_->OnSend(packet.src.host, packet.dst.host, simulator_.Now());
    if (d.drop) {
      ++packets_dropped_;
      TRACE_INSTANT("net.drop", packet.src.host,
                    "dst=" + std::to_string(packet.dst.host) + " reason=fault");
      return;
    }
    delay += d.extra_delay;
    if (d.duplicate) {
      ++packets_duplicated_;
      // The copy trails the original.
      Deliver(Packet{packet.src, packet.dst, std::make_unique<proto::Envelope>(*packet.envelope)},
              delay + d.dup_extra_delay);
    }
  }

  Deliver(std::move(packet), delay);
}

Network::PacketSlot* Network::AcquireSlot() {
  if (free_slots_ != nullptr) {
    PacketSlot* slot = free_slots_;
    free_slots_ = slot->next;
    return slot;
  }
  slot_arena_.push_back(std::make_unique<PacketSlot>());
  return slot_arena_.back().get();
}

void Network::ReleaseSlot(PacketSlot* slot) {
  slot->next = free_slots_;
  free_slots_ = slot;
}

void Network::Deliver(Packet packet, sim::Duration delay) {
  PacketSlot* slot = AcquireSlot();
  slot->packet = std::move(packet);
  // Capture the sender's ambient span: delivery runs from the event loop
  // (ambient reset to 0), so receive-side instants must be attributed
  // explicitly to stay causally linked to the send.
  slot->send_span = sim::tracectx::current_span;
  simulator_.Schedule(delay, [this, slot] { DeliverSlot(slot); });
}

void Network::DeliverSlot(PacketSlot* slot) {
  Packet packet = std::move(slot->packet);
  uint64_t send_span = slot->send_span;
  ReleaseSlot(slot);
  int dst = packet.dst.host;
  // Re-check liveness at delivery time: the receiver may have crashed while
  // the packet was in flight.
  if (!hosts_[dst].up) {
    ++packets_dropped_;
    if (trace::Recorder* recorder = trace::Active()) {
      recorder->InstantInSpan(send_span, "net.drop", dst, "reason=down");
    }
    return;
  }
  if (trace::Recorder* recorder = trace::Active()) {
    recorder->InstantInSpan(send_span, "net.recv", dst, "src=" + std::to_string(packet.src.host));
  }
  hosts_[dst].rx->Send(std::move(packet));
}

void Network::SetHostUp(Address address, bool up) {
  CHECK_GE(address.host, 0);
  CHECK_LT(static_cast<size_t>(address.host), hosts_.size());
  hosts_[address.host].up = up;
}

bool Network::IsHostUp(Address address) const {
  CHECK_GE(address.host, 0);
  CHECK_LT(static_cast<size_t>(address.host), hosts_.size());
  return hosts_[address.host].up;
}

}  // namespace net
