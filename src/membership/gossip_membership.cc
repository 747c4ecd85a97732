#include "membership/gossip_membership.h"

#include <algorithm>

namespace agb::membership {

namespace {

/// Rank in the "closer to down" direction; ties in revision and heartbeat
/// are broken towards the terminal state so claims never flap backwards.
int state_rank(LivenessState state) noexcept {
  return static_cast<int>(state);
}

std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

bool fresher_than(const MemberRecord& a, const MemberRecord& b) {
  if (a.revision != b.revision) return a.revision > b.revision;
  if (a.heartbeat != b.heartbeat) return a.heartbeat > b.heartbeat;
  return state_rank(a.state) > state_rank(b.state);
}

std::size_t encoded_record_size(const MemberRecord& record) {
  // u32 node + varint revision + varint heartbeat + u8 state + u32 host +
  // u16 port — must mirror the member_records section in gossip/message.cc.
  return 4 + varint_size(record.revision) + varint_size(record.heartbeat) +
         1 + 4 + 2;
}

GossipMembership::GossipMembership(NodeId self, GossipMembershipParams params,
                                   Rng rng)
    : id_(self), params_(params), rng_(rng) {
  // A suspect must outlive the suspicion threshold before dying, whatever
  // the caller configured.
  params_.suspect_after = std::max<DurationMs>(params_.suspect_after, 1);
  params_.down_after =
      std::max(params_.down_after, params_.suspect_after + 1);
  self_.node = id_;
  self_.revision = params_.initial_revision;
  self_.state = LivenessState::kUp;
}

std::vector<NodeId> GossipMembership::targets(std::size_t fanout) {
  std::vector<NodeId> live = snapshot();
  if (live.empty()) {
    // Total isolation: every peer timed out while we could not be heard
    // (an asymmetric partition mutes our outbound; by the time it heals,
    // our own silence clocks have condemned the whole group). Going quiet
    // now would make the exclusion permanent — nobody gossips to a
    // suspect, so nobody would ever carry our revision-bumped self record
    // back out. Keep probing the suspects instead (or, with only
    // tombstones left, the tombstones): one delivered digest restarts the
    // exchange and the group revives us from its fresher records.
    for (const auto& [node, entry] : peers_) {
      if (entry.record.state == LivenessState::kSuspect) live.push_back(node);
    }
    if (live.empty()) {
      for (const auto& [node, entry] : peers_) live.push_back(node);
    }
    std::sort(live.begin(), live.end());
  }
  if (live.size() <= fanout) return live;
  std::vector<NodeId> out;
  out.reserve(fanout);
  for (std::size_t idx : rng_.sample_indices(live.size(), fanout)) {
    out.push_back(live[idx]);
  }
  return out;
}

void GossipMembership::add(NodeId node) {
  if (node == id_) return;
  auto [it, inserted] = peers_.try_emplace(node);
  if (inserted) {
    it->second.record.node = node;
    it->second.last_update = now_;
    return;
  }
  // Oracle/bootstrap re-add of a known member: revive it locally without
  // touching the gossiped freshness key (we fabricate no heartbeats).
  if (it->second.record.state != LivenessState::kUp) {
    it->second.record.state = LivenessState::kUp;
    it->second.last_update = now_;
  }
}

void GossipMembership::remove(NodeId node) {
  auto it = peers_.find(node);
  if (it == peers_.end()) return;
  // A local down verdict at the current freshness key. Ties in
  // revision/heartbeat resolve towards down, so this verdict propagates —
  // the in-protocol analogue of an lpbcast unsubscription.
  it->second.record.state = LivenessState::kDown;
}

bool GossipMembership::contains(NodeId node) const {
  auto it = peers_.find(node);
  return it != peers_.end() &&
         it->second.record.state != LivenessState::kDown;
}

std::size_t GossipMembership::size() const {
  std::size_t n = 0;
  for (const auto& [node, entry] : peers_) {
    if (entry.record.state == LivenessState::kUp) ++n;
  }
  return n;
}

std::vector<NodeId> GossipMembership::snapshot() const {
  std::vector<NodeId> out;
  out.reserve(peers_.size());
  for (const auto& [node, entry] : peers_) {
    if (entry.record.state == LivenessState::kUp) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GossipMembership::tick(TimeMs now) {
  now_ = std::max(now_, now);
  ++self_.heartbeat;
  if (!ticked_) {
    // First tick: baseline every seed peer's silence clock to "now". A
    // process can't accuse peers of silence for time it wasn't running —
    // without this, a node (re)started against a wall clock far past zero
    // walks its whole seed list up → suspect → down in two ticks, gossips
    // to nobody, and the group deadlocks in mutual tombstones.
    ticked_ = true;
    for (auto& [node, entry] : peers_) entry.last_update = now_;
  }
  for (auto& [node, entry] : peers_) {
    const DurationMs silent = now_ - entry.last_update;
    switch (entry.record.state) {
      case LivenessState::kUp:
        if (silent >= params_.suspect_after) {
          entry.record.state = LivenessState::kSuspect;
          ++counters_.suspicions;
        }
        break;
      case LivenessState::kSuspect:
        if (silent >= params_.down_after) {
          entry.record.state = LivenessState::kDown;
          ++counters_.downs;
        }
        break;
      case LivenessState::kDown:
        break;  // tombstones persist; only fresher records revive them
    }
  }
}

std::vector<MemberRecord> GossipMembership::make_digest() {
  std::vector<MemberRecord> out;
  out.push_back(self_);
  std::size_t spent = encoded_record_size(self_);

  // Freshest-first: most recently refreshed peers carry the news; node id
  // breaks ties so the selection is deterministic.
  std::vector<const PeerEntry*> order;
  order.reserve(peers_.size());
  for (const auto& [node, entry] : peers_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const PeerEntry* a, const PeerEntry* b) {
              if (a->last_update != b->last_update) {
                return a->last_update > b->last_update;
              }
              return a->record.node < b->record.node;
            });
  for (const PeerEntry* entry : order) {
    const std::size_t cost = encoded_record_size(entry->record);
    if (spent + cost > params_.digest_budget_bytes) break;
    out.push_back(entry->record);
    spent += cost;
  }
  return out;
}

void GossipMembership::apply_digest(const std::vector<MemberRecord>& records,
                                    TimeMs now) {
  now_ = std::max(now_, now);
  for (const MemberRecord& record : records) {
    if (record.node == id_) {
      refute_self_claim(record);
    } else if (record.node != kInvalidNode) {
      merge_record(record, now_);
    }
  }
}

void GossipMembership::merge_record(const MemberRecord& incoming,
                                    TimeMs now) {
  auto [it, inserted] = peers_.try_emplace(incoming.node);
  PeerEntry& entry = it->second;
  if (!inserted && !fresher_than(incoming, entry.record)) return;

  if (!inserted && entry.record.state != LivenessState::kUp &&
      incoming.state == LivenessState::kUp) {
    ++counters_.revivals;  // fresher record retracts a suspicion/tombstone
  }
  const EndpointBinding previous = entry.record.binding;
  entry.record = incoming;
  // An unbound record must not erase a known address: binding knowledge is
  // monotone within a revision, movers re-announce under a bumped one.
  if (!incoming.binding.bound()) entry.record.binding = previous;
  entry.last_update = now;

  if (binding_listener_ && entry.record.binding.bound() &&
      entry.record.binding != previous) {
    binding_listener_(incoming.node, entry.record.binding);
  }
}

void GossipMembership::refute_self_claim(const MemberRecord& claim) {
  if (!fresher_than(claim, self_)) return;
  // The group holds a fresher record about us than our own — a previous
  // incarnation's ghost, or somebody's suspicion outrunning our heartbeat.
  // Jump past it so our next digest re-asserts this incarnation as up.
  self_.revision = std::max(self_.revision, claim.revision) + 1;
  self_.heartbeat = std::max(self_.heartbeat, claim.heartbeat) + 1;
  self_.state = LivenessState::kUp;
}

void GossipMembership::on_heard_from(NodeId sender, TimeMs now) {
  if (sender == id_) return;
  now_ = std::max(now_, now);
  auto [it, inserted] = peers_.try_emplace(sender);
  PeerEntry& entry = it->second;
  if (inserted) entry.record.node = sender;
  entry.last_update = now_;
  // A datagram in hand beats a timeout-based suspicion; a down tombstone
  // stays until the sender's own (revision-bumped) record revives it.
  if (entry.record.state == LivenessState::kSuspect) {
    entry.record.state = LivenessState::kUp;
    ++counters_.revivals;
  }
}

void GossipMembership::on_restart() {
  ++self_.revision;
  self_.state = LivenessState::kUp;
  // A restarted process trusts its seed list again: local suspicions and
  // tombstones accumulated while isolated (we heard nobody, so we declared
  // everybody dead) are wiped, silence clocks restart now. Without this a
  // node down past down_after would come back believing the whole group is
  // gone — empty targets — while the group believes the same of it: mutual
  // silence that no revision bump can break. Verdicts stay at their old
  // freshness keys, so genuinely-down peers are re-learned from gossip
  // (their tombstones are fresher) or re-suspected on timeout.
  for (auto& [node, entry] : peers_) {
    if (entry.record.state != LivenessState::kUp) {
      entry.record.state = LivenessState::kUp;
    }
    entry.last_update = now_;
  }
}

void GossipMembership::set_self_binding(EndpointBinding binding) {
  self_.binding = binding;
  on_restart();
}

void GossipMembership::rejoin(bool migrated) {
  if (!migrated) {
    on_restart();
    return;
  }
  EndpointBinding binding = self_.binding;
  ++binding.port;  // moved host: same node, next port
  set_self_binding(binding);
}

void GossipMembership::set_binding_listener(BindingListener listener) {
  binding_listener_ = std::move(listener);
}

std::optional<LivenessState> GossipMembership::state_of(NodeId node) const {
  if (node == id_) return self_.state;
  auto it = peers_.find(node);
  if (it == peers_.end()) return std::nullopt;
  return it->second.record.state;
}

EndpointBinding GossipMembership::binding_of(NodeId node) const {
  if (node == id_) return self_.binding;
  auto it = peers_.find(node);
  return it == peers_.end() ? EndpointBinding{} : it->second.record.binding;
}

std::vector<MemberRecord> GossipMembership::table() const {
  std::vector<MemberRecord> out;
  out.reserve(peers_.size());
  for (const auto& [node, entry] : peers_) out.push_back(entry.record);
  std::sort(out.begin(), out.end(),
            [](const MemberRecord& a, const MemberRecord& b) {
              return a.node < b.node;
            });
  return out;
}

}  // namespace agb::membership
