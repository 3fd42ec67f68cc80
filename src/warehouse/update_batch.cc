#include "warehouse/update_batch.h"

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace gsv {

namespace {

// One map key per (source, edge) / (source, modify target). Interned OID
// ids are dense uint32s, so an edge packs into one uint64; the source index
// is folded in by keeping one map per source.
uint64_t EdgeKey(const UpdateEvent& event) {
  return (static_cast<uint64_t>(event.parent.id()) << 32) | event.child.id();
}

// Sets the presence of the edge parent->child in `snapshot` when it is a
// snapshot of `parent`.
void PatchSnapshot(std::optional<Object>* snapshot, const Oid& parent,
                   const Oid& child, bool present) {
  if (!snapshot->has_value() || (*snapshot)->oid() != parent ||
      !(*snapshot)->IsSet()) {
    return;
  }
  OidSet& children = (*snapshot)->mutable_children();
  if (present) {
    children.Insert(child);
  } else {
    children.Erase(child);
  }
}

}  // namespace

void UpdateBatch::Add(std::vector<std::pair<size_t, UpdateEvent>> events) {
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.reserve(events_.size() + events.size());
  for (auto& item : events) events_.push_back(std::move(item));
}

size_t UpdateBatch::Coalesce() {
  if (events_.size() < 2) return 0;  // nothing to cancel or merge
  // index into events_ of the last surviving event for a key, per source.
  std::unordered_map<size_t, std::unordered_map<uint64_t, size_t>> last_edge;
  std::unordered_map<size_t, std::unordered_map<uint32_t, size_t>> last_modify;
  std::vector<bool> dead(events_.size(), false);
  size_t removed = 0;

  for (size_t i = 0; i < events_.size(); ++i) {
    const auto& [source, event] = events_[i];
    if (event.kind == UpdateKind::kModify) {
      auto& per_source = last_modify[source];
      auto [it, inserted] = per_source.emplace(event.parent.id(), i);
      if (!inserted) {
        // Merge into this (later) slot: newest snapshot and new value win;
        // the net transition starts from the earliest old value.
        UpdateEvent& survivor = events_[i].second;
        const UpdateEvent& earlier = events_[it->second].second;
        if (earlier.old_value.has_value()) {
          survivor.old_value = earlier.old_value;
        }
        dead[it->second] = true;
        ++removed;
        it->second = i;
      }
      continue;
    }
    auto& per_source = last_edge[source];
    const uint64_t key = EdgeKey(event);
    auto it = per_source.find(key);
    if (it != per_source.end() &&
        events_[it->second].second.kind != event.kind) {
      // insert/delete (or delete/insert) of the same edge: net nil. The
      // edge exists outside the pair iff the pair ends with the insert.
      const bool present = event.kind == UpdateKind::kInsert;
      for (size_t k = it->second + 1; k < i; ++k) {
        if (events_[k].first != source) continue;
        UpdateEvent& between = events_[k].second;
        PatchSnapshot(&between.parent_object, event.parent, event.child,
                      present);
        PatchSnapshot(&between.child_object, event.parent, event.child,
                      present);
      }
      dead[it->second] = true;
      dead[i] = true;
      removed += 2;
      per_source.erase(it);
      continue;
    }
    per_source[key] = i;
  }

  if (removed == 0) return 0;
  std::vector<std::pair<size_t, UpdateEvent>> survivors;
  survivors.reserve(events_.size() - removed);
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!dead[i]) survivors.push_back(std::move(events_[i]));
  }
  events_ = std::move(survivors);
  return removed;
}

}  // namespace gsv
