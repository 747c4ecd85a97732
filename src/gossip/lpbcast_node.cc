#include "gossip/lpbcast_node.h"

#include <utility>

#include "membership/locality_view.h"

namespace agb::gossip {

LpbcastNode::LpbcastNode(NodeId self, GossipParams params,
                         std::unique_ptr<membership::Membership> membership,
                         Rng rng)
    : self_(self),
      params_(params),
      membership_(std::move(membership)),
      effective_fanout_(params.fanout),
      rng_(rng),
      event_ids_(params.max_event_ids) {
  // Digest exchange binds to the PartialView even when it sits under a
  // LocalityView decorator: locality only biases *targets*, the subs/unsubs
  // traffic must keep flowing through the wrapped view.
  membership::Membership* base = membership_.get();
  if (auto* locality = dynamic_cast<membership::LocalityView*>(base)) {
    locality_view_ = locality;
    base = &locality->inner();
  }
  partial_view_ = dynamic_cast<membership::PartialView*>(base);
  gossip_membership_ = dynamic_cast<membership::GossipMembership*>(base);
}

void LpbcastNode::set_max_events(std::size_t max_events, TimeMs now) {
  params_.max_events = max_events;
  enforce_buffer_bound(now);
  on_capacity_change(now);
}

EventId LpbcastNode::broadcast(Payload payload, TimeMs now) {
  return broadcast_on_stream(std::move(payload), now, /*stream=*/0,
                             /*supersedes=*/false);
}

EventId LpbcastNode::broadcast_on_stream(Payload payload, TimeMs now,
                                         std::uint32_t stream,
                                         bool supersedes) {
  Event event;
  event.id = EventId{self_, next_sequence_++};
  event.age = 0;
  event.created_at = now;
  event.stream = stream;
  event.supersedes = supersedes;
  event.payload = std::move(payload);

  event_ids_.insert(event.id);
  ++counters_.broadcasts;
  ++counters_.deliveries;
  if (params_.recovery.enabled) note_seen_id(event.id);
  if (deliver_) deliver_(event, now);

  events_.insert(std::move(event));
  enforce_buffer_bound(now);
  return EventId{self_, next_sequence_ - 1};
}

Multicast LpbcastNode::Outgoing::to_multicast(NodeId from) && {
  Multicast batch;
  batch.from = from;
  batch.payload = std::move(wire);
  batch.targets = std::move(targets);
  return batch;
}

LpbcastNode::Outgoing LpbcastNode::on_round(TimeMs now) {
  on_round_start(now);
  // Repair bookkeeping counts *completed* rounds of waiting, so it runs
  // before this round is counted.
  if (params_.recovery.enabled) {
    emit_repair_requests();
    expire_retrieve_store();
  }
  ++round_;
  ++counters_.rounds;

  // "Update ages": one hop of age for everything held, then purge events
  // that have been around long enough to be considered disseminated.
  events_.increment_ages();
  auto expired = events_.purge_age_limit(params_.max_age);
  record_drops(expired, DropReason::kAgeLimit, now);

  Outgoing out;
  out.message.sender = self_;
  out.message.round = round_;
  out.message.min_buff =
      static_cast<std::uint32_t>(params_.max_events);  // base default
  augment_header(out.message, now);
  if (partial_view_ != nullptr) {
    out.message.membership = partial_view_->make_digest();
  }
  if (gossip_membership_ != nullptr) {
    // Advance suspicion *before* target selection so a peer crossing its
    // timeout this round is excluded from this round's fanout already.
    gossip_membership_->tick(now);
    out.message.member_records = gossip_membership_->make_digest();
  }
  fill_seen_digest(out.message);
  out.targets = membership_->targets(effective_fanout_);
  counters_.gossips_sent += out.targets.size();
  if (!out.targets.empty()) {
    // Straight from the buffer's slots, in insertion order: no Event copy.
    out.wire = out.message.encode_with(events_.in_insertion_order());
  }
  return out;
}

void LpbcastNode::on_gossip(const GossipMessage& message, TimeMs now) {
  ++counters_.gossips_received;
  process_header(message, now);
  if (partial_view_ != nullptr) {
    partial_view_->apply_digest(message.sender, message.membership);
  }
  if (gossip_membership_ != nullptr) {
    gossip_membership_->on_heard_from(message.sender, now);
    gossip_membership_->apply_digest(message.member_records, now);
  }

  for (const Event& incoming : message.events) {
    ingest_event(incoming, now, /*via_repair=*/false);
  }
  if (params_.recovery.enabled) process_seen_digest(message);
  enforce_buffer_bound(now, virtual_drop_bound());
}

void LpbcastNode::ingest_event(const Event& incoming, TimeMs now,
                               bool via_repair) {
  // A buffered event is known whatever the digest still remembers: it
  // adopts the higher age so the dissemination estimate keeps progressing
  // (paper Fig. 1, "Update events and ages"). Asking the small buffer index
  // first spares most duplicates the digest probe; only an id forgotten by
  // both is novel again.
  if (events_.bump_age(incoming.id, incoming.age) ||
      !event_ids_.insert(incoming.id)) {
    ++counters_.duplicates;
    return;
  }
  ++counters_.events_received;
  ++counters_.deliveries;
  if (via_repair) ++counters_.events_recovered;
  // A decoded payload is a slice of its datagram: the one copy of the
  // receive path, so that no stored or delivered event pins a datagram.
  Event event = incoming;
  event.payload = SharedBytes::copy_of(incoming.payload);
  if (deliver_) deliver_(event, now);
  on_event_ingested(event, now);
  if (params_.recovery.enabled) {
    missing_.erase(event.id);
    note_seen_id(event.id);
  }
  events_.insert(std::move(event));
}

void LpbcastNode::note_seen_id(const EventId& id) {
  recent_ids_.push_back(id);
  while (recent_ids_.size() > params_.recovery.seen_ids_memory) {
    recent_ids_.pop_front();
  }
}

void LpbcastNode::process_seen_digest(const GossipMessage& message) {
  // Known means what ingest_event treats as known: in the digest or still
  // buffered, so a buffered id the digest forgot is never asked for.
  for (const EventId& id : message.seen_ids) {
    if (event_ids_.contains(id) || events_.contains(id) ||
        missing_.contains(id)) {
      continue;
    }
    ++counters_.missing_detected;
    missing_.emplace(id, MissingEntry{message.sender, round_, false});
  }
}

void LpbcastNode::fill_seen_digest(GossipMessage& message) {
  if (!params_.recovery.enabled || recent_ids_.empty()) return;
  const std::size_t want = params_.recovery.seen_ids_per_gossip;
  if (recent_ids_.size() <= want) {
    message.seen_ids.assign(recent_ids_.begin(), recent_ids_.end());
    return;
  }
  // Random sample across the memory, so both fresh and about-to-expire ids
  // are advertised (the old ones are exactly the ones a receiver can no
  // longer obtain through normal gossip).
  auto indices = rng_.sample_indices(recent_ids_.size(), want);
  message.seen_ids.reserve(want);
  for (std::size_t idx : indices) message.seen_ids.push_back(recent_ids_[idx]);
}

void LpbcastNode::emit_repair_requests() {
  const auto& recovery = params_.recovery;
  // Group overdue ids by the peer that advertised them.
  std::unordered_map<NodeId, std::vector<EventId>> by_peer;
  for (auto it = missing_.begin(); it != missing_.end();) {
    auto& [id, entry] = *it;
    const Round waited = round_ - entry.heard_round;
    if (waited >= recovery.give_up_after_rounds) {
      ++counters_.missing_abandoned;
      it = missing_.erase(it);
      continue;
    }
    if (!entry.requested && waited >= recovery.repair_after_rounds) {
      auto& batch = by_peer[entry.heard_from];
      if (batch.size() < recovery.max_ids_per_request) {
        batch.push_back(id);
        entry.requested = true;
      }
    }
    ++it;
  }
  for (auto& [peer, ids] : by_peer) {
    RepairRequest request;
    request.sender = self_;
    request.ids = std::move(ids);
    ++counters_.repair_requests;
    outbox_.push_back(ControlDatagram{peer, request.encode_shared()});
  }
}

void LpbcastNode::retain_for_retrieval(std::span<const Event> evicted) {
  if (params_.recovery.retrieve_rounds == 0) return;
  for (const Event& event : evicted) {
    retrieve_store_.push_back(RetrievableEvent{event, round_});
  }
  while (retrieve_store_.size() > params_.recovery.max_retrieve_events) {
    retrieve_store_.pop_front();
  }
}

void LpbcastNode::expire_retrieve_store() {
  while (!retrieve_store_.empty() &&
         round_ - retrieve_store_.front().evicted_round >
             params_.recovery.retrieve_rounds) {
    retrieve_store_.pop_front();
  }
}

const Event* LpbcastNode::find_retrievable(const EventId& id) const {
  // Newest first: a re-evicted event's most recent copy wins.
  for (auto it = retrieve_store_.rbegin(); it != retrieve_store_.rend();
       ++it) {
    if (it->event.id == id) return &it->event;
  }
  return nullptr;
}

void LpbcastNode::on_repair_request(const RepairRequest& request,
                                    TimeMs /*now*/) {
  if (!params_.recovery.enabled) return;
  RepairReply reply;
  reply.sender = self_;
  for (const EventId& id : request.ids) {
    // Serve from the live buffer first, then from the retrieval store; an
    // empty reply is not sent.
    if (const Event* event = events_.find(id)) {
      reply.events.push_back(*event);
    } else if (const Event* retained = find_retrievable(id)) {
      reply.events.push_back(*retained);
    }
  }
  if (reply.events.empty()) return;
  ++counters_.repair_replies;
  outbox_.push_back(ControlDatagram{request.sender, reply.encode_shared()});
}

void LpbcastNode::on_repair_reply(const RepairReply& reply, TimeMs now) {
  if (!params_.recovery.enabled) return;
  for (const Event& event : reply.events) {
    ingest_event(event, now, /*via_repair=*/true);
  }
  enforce_buffer_bound(now, virtual_drop_bound());
}

bool LpbcastNode::on_wire(const WireMessage& message, TimeMs now) {
  if (const auto* gossip = std::get_if<GossipMessage>(&message)) {
    on_gossip(*gossip, now);
    return true;
  }
  if (const auto* request = std::get_if<RepairRequest>(&message)) {
    on_repair_request(*request, now);
    return true;
  }
  if (const auto* reply = std::get_if<RepairReply>(&message)) {
    on_repair_reply(*reply, now);
    return true;
  }
  // std::monostate: the datagram did not survive decoding. Count it — a
  // corrupted wire must be observable, not silently discarded.
  ++counters_.decode_drops;
  return false;
}

std::vector<LpbcastNode::ControlDatagram> LpbcastNode::take_outbox() {
  return std::exchange(outbox_, {});
}

void LpbcastNode::record_drops(std::span<const Event> dropped,
                               DropReason reason, TimeMs now) {
  if (params_.recovery.enabled) retain_for_retrieval(dropped);
  for (const Event& event : dropped) {
    switch (reason) {
      case DropReason::kBufferOverflow:
        ++counters_.drops_overflow;
        counters_.overflow_drop_age.add(static_cast<double>(event.age));
        break;
      case DropReason::kAgeLimit:
        ++counters_.drops_age_limit;
        break;
      case DropReason::kObsolete:
        ++counters_.drops_obsolete;
        break;
    }
    if (drop_) drop_(event, reason, now);
  }
}

void LpbcastNode::enforce_buffer_bound(TimeMs now,
                                       std::size_t keep_unmarked) {
  // When space is needed, obsolete events are spent first (semantic
  // purge): they carry no meaning anymore, so evicting them costs nothing.
  const EventBuffer::Overflow overflow = events_.settle_overflow(
      params_.max_events, keep_unmarked, params_.semantic_purge,
      [this, now](const Event& event) { on_virtual_drop(event, now); });
  record_drops(overflow.obsolete, DropReason::kObsolete, now);
  record_drops(overflow.evicted, DropReason::kBufferOverflow, now);
}

}  // namespace agb::gossip
