#include "runtime/node_runtime.h"

#include <chrono>
#include <thread>
#include <variant>
#include <vector>

namespace agb::runtime {

NodeRuntime::NodeRuntime(std::unique_ptr<gossip::LpbcastNode> node,
                         DatagramNetwork& network, Clock clock)
    : node_(std::move(node)),
      adaptive_(dynamic_cast<adaptive::AdaptiveLpbcastNode*>(node_.get())),
      network_(network),
      clock_(std::move(clock)) {
  // Batch attach: fabrics with batched ingestion (recvmmsg drains, sharded
  // dispatch bursts) hand a whole inbound burst over in one call, and the
  // runtime takes its state lock once per burst instead of once per
  // datagram. Fabrics without native batching deliver bursts of one.
  network_.attach_batch(
      node_->id(), [this](const Datagram* batch, std::size_t count,
                          TimeMs now) { on_datagram_batch(batch, count, now); });
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::set_deliver_handler(DeliverFn fn) {
  std::lock_guard lock(mutex_);
  node_->set_deliver_handler(std::move(fn));
}

void NodeRuntime::start() {
  std::lock_guard lock(mutex_);
  if (started_) return;
  started_ = true;
  round_thread_ = std::thread([this] { round_loop(); });
}

void NodeRuntime::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_.store(true);
  }
  cv_.notify_all();
  if (round_thread_.joinable()) round_thread_.join();
  // Never under mutex_: InMemoryFabric::detach blocks until any in-flight
  // delivery returns, and that delivery (on_datagram) needs mutex_.
  network_.detach(node_->id());
}

void NodeRuntime::round_loop() {
  const auto period =
      std::chrono::milliseconds(node_->params().gossip_period);
  std::unique_lock lock(mutex_);
  auto next_round = std::chrono::steady_clock::now() + period;
  const auto stopping = [this] { return stopping_.load(); };
  // Wakes for rounds only; stop() ends the wait early.
  while (!cv_.wait_until(lock, next_round, stopping)) {
    next_round += period;
    auto out = node_->on_round(clock_());
    auto controls = node_->take_outbox();
    // One Multicast per round: encoded once here, handed to the fabric as
    // a single batch (one lock acquisition / syscall on its side).
    Multicast batch = std::move(out).to_multicast(node_->id());
    const NodeId self = node_->id();
    lock.unlock();  // never hold the node lock across network calls
    if (!batch.targets.empty()) network_.send_batch(std::move(batch));
    for (auto& control : controls) {
      network_.send(Datagram{self, control.target,
                             std::move(control.payload)});
    }
    lock.lock();
    // A stalled send (or a suspended process) must not make the loop spin
    // through a backlog of rounds; resume the cadence from now.
    const auto after_send = std::chrono::steady_clock::now();
    if (next_round < after_send) next_round = after_send + period;
  }
}

void NodeRuntime::on_datagram_batch(const Datagram* batch, std::size_t count,
                                    TimeMs now) {
  // Injected gray failure: a stall rule sleeps the receive path here — the
  // node is slow-but-up (its round thread keeps sending on cadence), which
  // is exactly the failure mode membership suspicion must ride out.
  if (fault_plane_ != nullptr) {
    const DurationMs stall = fault_plane_->stall_for(node_->id(), now);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
  }
  // Decode outside the state lock — the codec needs no node state — then
  // feed the whole burst through under ONE lock acquisition. A malformed
  // datagram (corruption on the wire) decodes to std::monostate, which the
  // node counts in its decode_drops counter and otherwise ignores.
  std::vector<gossip::WireMessage> messages;
  messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    messages.push_back(gossip::decode_any(batch[i].payload));
  }
  std::vector<gossip::LpbcastNode::ControlDatagram> controls;
  const NodeId self = node_->id();
  {
    std::lock_guard lock(mutex_);
    bool handled = false;
    for (const auto& message : messages) {
      handled = node_->on_wire(message, now) || handled;
    }
    if (!handled) return;
    controls = node_->take_outbox();
  }
  for (auto& control : controls) {
    network_.send(Datagram{self, control.target, std::move(control.payload)});
  }
}

EventId NodeRuntime::broadcast(gossip::Payload payload) {
  std::lock_guard lock(mutex_);
  return node_->broadcast(std::move(payload), clock_());
}

std::optional<EventId> NodeRuntime::admit(gossip::Payload payload,
                                          std::uint32_t stream,
                                          bool supersedes) {
  std::lock_guard lock(mutex_);
  const TimeMs now = clock_();
  if (adaptive_ == nullptr) {
    return node_->broadcast_on_stream(std::move(payload), now, stream,
                                      supersedes);
  }
  EventId id;
  if (!adaptive_->try_broadcast_on_stream(std::move(payload), now, stream,
                                          supersedes, &id)) {
    return std::nullopt;
  }
  return id;
}

gossip::NodeCounters NodeRuntime::counters() const {
  std::lock_guard lock(mutex_);
  return node_->counters();
}

double NodeRuntime::allowed_rate() const {
  std::lock_guard lock(mutex_);
  return adaptive_ ? adaptive_->allowed_rate() : 0.0;
}

std::uint32_t NodeRuntime::min_buff() const {
  std::lock_guard lock(mutex_);
  return adaptive_ ? adaptive_->min_buff() : 0;
}

double NodeRuntime::avg_age() const {
  std::lock_guard lock(mutex_);
  return adaptive_ ? adaptive_->avg_age() : 0.0;
}

void NodeRuntime::with_node(
    const std::function<void(gossip::LpbcastNode&)>& fn) {
  std::lock_guard lock(mutex_);
  fn(*node_);
}

void NodeRuntime::remove_member(NodeId node) {
  std::lock_guard lock(mutex_);
  node_->membership().remove(node);
}

void NodeRuntime::on_recover(bool migrate_binding) {
  std::lock_guard lock(mutex_);
  if (auto* gm = node_->gossip_membership()) gm->rejoin(migrate_binding);
}

std::optional<membership::LivenessState> NodeRuntime::peer_state(
    NodeId peer) const {
  std::lock_guard lock(mutex_);
  const auto* gm = node_->gossip_membership();
  return gm == nullptr ? std::nullopt : gm->state_of(peer);
}

membership::GossipMembership* NodeRuntime::gossip_membership() {
  return node_->gossip_membership();
}

void NodeRuntime::set_capacity(std::size_t max_events) {
  std::lock_guard lock(mutex_);
  node_->set_max_events(max_events, clock_());
}

}  // namespace agb::runtime
