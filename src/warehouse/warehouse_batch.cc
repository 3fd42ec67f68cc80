#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/algorithm1.h"
#include "core/buffered_view.h"
#include "util/retry.h"
#include "warehouse/warehouse.h"

namespace gsv {

namespace {

// One unit of evaluation: the events of one view (or of one independent
// root subtree within a view), in batch order, each tagged with its
// screening verdict.
struct EvalTask {
  size_t view_index = 0;
  std::vector<std::pair<const UpdateEvent*, bool>> events;  // (event, relevant)
  std::unique_ptr<BufferedViewStorage> buffer;
  Algorithm1Maintainer::Stats stats;
  Status status;
};

}  // namespace

// Keys the independent-subtree partition: the child of the source root whose
// subtree contains the event's anchor object, by a bounded first-parent climb
// over the final source state. Unreachable/detached anchors (and climbs that
// exceed the bound) fall back to the anchor itself, which conservatively
// isolates them in their own group. Modifies anchor at the modified object so
// every modify of one object lands in one group and its delegate-value syncs
// replay in batch order.
static uint32_t SubtreeGroupKey(const ObjectStore& store, const Oid& root,
                                const UpdateEvent& event) {
  Oid anchor = event.parent;
  if (event.kind != UpdateKind::kModify && anchor == root && event.child.valid()) {
    anchor = event.child;
  }
  if (anchor == root) return anchor.id();
  Oid current = anchor;
  for (int depth = 0; depth < 256; ++depth) {
    std::vector<Oid> parents = store.Parents(current);
    if (parents.empty()) break;
    if (parents.front() == root) return current.id();
    current = parents.front();
  }
  return anchor.id();
}

Status Warehouse::ProcessPendingBatch(const BatchOptions& options) {
  UpdateBatch batch;
  batch.Add(std::exchange(pending_, {}));
  costs_.events_coalesced += batch.Coalesce();
  std::vector<EventRef> events;
  events.reserve(batch.size());
  for (const auto& [source_index, event] : batch.events()) {
    events.emplace_back(source_index, &event);
  }
  return Drain(events, options, /*inline_event=*/false);
}

Status Warehouse::Drain(std::span<const EventRef> events,
                        const BatchOptions& options, bool inline_event) {
  const int64_t queries_before = costs_.source_queries;
  // Recovery prologue: resynced views take part in this drain normally. A
  // new inline event is the only chance to notice its source came back;
  // the circuit breaker keeps the probe cheap while it is still down.
  for (auto& entry : views_) {
    if (entry->stale &&
        (!inline_event || entry->source_index == events.front().first)) {
      TryResyncView(*entry, /*force=*/false);
    }
  }
  if (events.empty()) return Status::Ok();
  costs_.events_received += static_cast<int64_t>(events.size());

  // ---- Phase 1: absorb the batch into the auxiliary caches and plan the
  // evaluation tasks (screening once per distinct label, grouping by
  // independent root subtree). Sequential: caches are shared mutable state.
  constexpr size_t kNoTask = std::numeric_limits<size_t>::max();
  Status first_error;
  std::vector<EvalTask> tasks;
  for (size_t view_index = 0; view_index < views_.size(); ++view_index) {
    ViewEntry& entry = *views_[view_index];
    SourceEntry& source = *sources_[entry.source_index];

    // §5.1 screening, memoized per distinct label when there is more than
    // one event to screen.
    std::unordered_map<std::string, bool> edge_labels;
    std::unordered_map<std::string, bool> modify_labels;
    auto screen = [&](std::unordered_map<std::string, bool>& memo,
                      const std::string& label, const UpdateEvent& event) {
      if (events.size() == 1) return EventRelevant(entry, event);
      auto [it, fresh] = memo.try_emplace(label, false);
      if (fresh) it->second = EventRelevant(entry, event);
      return it->second;
    };
    // Root subtrees of a tree cannot share affected delegates, so with a
    // worker pool each gets its own task. Storage-level membership lets a
    // sharded slice answer for the whole view (the root's delegate may
    // live at a peer shard). GDN views never split: a discrimination
    // network is one stateful engine per view (and DAG subtrees are not
    // independent anyway) — engines of different views still run in
    // parallel.
    const bool splittable = options.threads > 1 &&
                            entry.engine == EngineKind::kAlgorithm1 &&
                            !entry.storage()->ContainsBase(source.root);
    std::map<uint32_t, size_t> subtree_task;
    size_t view_task = kNoTask;

    for (const auto& [source_index, event] : events) {
      if (source_index != entry.source_index) continue;

      // Quarantined views sit the batch out: their events buffer for the
      // post-resync replay. A view can also quarantine mid-batch, when the
      // cache's query-backs hit a down source — the resync rebuilds the
      // corridor, so a partially absorbed batch cannot corrupt it.
      if (entry.stale) {
        BufferStaleEvent(entry, *event);
        continue;
      }
      // Deletes keep their detached subtrees readable in the cache until
      // PruneCaches().
      if (entry.cache != nullptr) {
        Status status = entry.cache->OnEvent(*event, source.wrapper.get());
        if (!status.ok()) {
          if (IsSourceFailure(status)) {
            Quarantine(entry, status);
            BufferStaleEvent(entry, *event);
            continue;
          }
          if (first_error.ok()) first_error = status;
          entry.sweep_full_due = true;  // the corridor may be off now
        }
      }

      bool relevant = true;
      // §5.1 screening applies to Algorithm 1 corridors only; the GDN must
      // see every event (its screening memo IS the network).
      if (entry.engine == EngineKind::kAlgorithm1 &&
          event->level >= ReportingLevel::kWithValues) {
        if (event->kind == UpdateKind::kModify) {
          relevant = screen(modify_labels,
                            event->parent_object.has_value()
                                ? event->parent_object->label()
                                : std::string(),
                            *event);
        } else if (event->child_object.has_value()) {
          relevant = screen(edge_labels, event->child_object->label(), *event);
        }
      }
      if (!relevant) ++costs_.events_screened_out;

      size_t& task_index =
          splittable
              ? subtree_task
                    .try_emplace(
                        SubtreeGroupKey(*source.store, source.root, *event),
                        kNoTask)
                    .first->second
              : view_task;
      if (task_index == kNoTask) {
        task_index = tasks.size();
        EvalTask& task = tasks.emplace_back();
        task.view_index = view_index;
        task.buffer = std::make_unique<BufferedViewStorage>(entry.storage());
      }
      tasks[task_index].events.emplace_back(event, relevant);
    }
  }

  // ---- Phase 2: evaluate (in parallel with a worker pool). Workers read
  // the frozen sources and caches through private accessors and buffer all
  // view operations; the shared delegate store is never touched.
  auto evaluate = [this](EvalTask& task) {
    ViewEntry& entry = *views_[task.view_index];
    SourceEntry& source = *sources_[entry.source_index];
    RemoteAccessor accessor(source.wrapper.get(), &costs_);
    accessor.set_cache(entry.cache.get());
    std::optional<Algorithm1Maintainer> maintainer;
    if (entry.engine == EngineKind::kAlgorithm1) {
      maintainer.emplace(task.buffer.get(), &accessor, entry.corridor,
                         source.root);
    }
    for (const auto& [event, relevant] : task.events) {
      Status status =
          MaintainEvent(entry, *event, relevant, task.buffer.get(), &accessor,
                        maintainer.has_value() ? &*maintainer : nullptr);
      if (!status.ok() && task.status.ok()) task.status = status;
    }
    if (maintainer.has_value()) task.stats = maintainer->stats();
  };
  ThreadPool* pool = options.threads > 1 ? Pool(options.threads) : nullptr;
  for (EvalTask& task : tasks) {
    if (pool == nullptr) {
      evaluate(task);
    } else {
      pool->Submit([&evaluate, &task] { evaluate(task); });
    }
  }
  if (pool != nullptr) pool->Wait();

  // ---- Phase 3: replay single-threaded in task order so the resulting
  // views, delegate store and stats are deterministic.
  //
  // All-or-nothing per view: when ANY of a view's tasks hit a down source,
  // none of its buffers replay — a half-applied batch would leave the view
  // in a state no source history ever produced. The whole batch slice
  // buffers for post-resync replay instead, and the view quarantines.
  for (EvalTask& task : tasks) {
    if (task.status.ok()) continue;
    ViewEntry& entry = *views_[task.view_index];
    // A poisoned network quarantines like a down source: its buffered
    // deltas are partial and must not replay; the resync recompute +
    // Rebuild() restores the view and the network together.
    const bool gdn_poisoned = entry.gdn != nullptr && entry.gdn->poisoned();
    if (!IsSourceFailure(task.status) && !gdn_poisoned) continue;
    Quarantine(entry, task.status);
  }
  for (EvalTask& task : tasks) {
    ViewEntry& entry = *views_[task.view_index];
    if (entry.stale) {
      for (const auto& [event, relevant] : task.events) {
        BufferStaleEvent(entry, *event);
      }
      continue;
    }
    if (!task.status.ok()) {
      if (first_error.ok()) first_error = task.status;
      entry.sweep_full_due = true;  // the failed step may have left extras
    }
    // Replay through the scoped storage when sharded: owned ops land in the
    // view, foreign ops queue in the outbox — still single-threaded here.
    Status status = task.buffer->ReplayInto(entry.storage());
    if (!status.ok() && first_error.ok()) first_error = status;
    if (entry.maintainer != nullptr) entry.maintainer->MergeStats(task.stats);
  }

  // ---- Phase 4: a deferred drain's verification sweep: per view, search
  // the batch's suspects and re-verify them, read-only in parallel;
  // deletions apply after the barrier. A sharded coordinator runs the batch
  // with run_sweep off: the jobs only record their suspects, and the
  // coordinator sweeps their union per view (RunVerificationSweep) once
  // every shard's foreign ops landed. An inline event needs no sweep.
  if (inline_event) {
    PruneCaches();
    if (costs_.source_queries == queries_before) ++costs_.events_local_only;
  } else {
    Status status = SweepDrain(events, options.run_sweep, pool);
    if (!status.ok() && first_error.ok()) first_error = status;
  }

  if (!first_error.ok()) last_status_ = first_error;
  // The batch drained to quiescence: one commit record closes the group
  // (every event and view delta logged above is certified applied). The
  // sharded coordinator commits instead, after cross-shard ops delivered.
  if (options.log_commit) LogCommit();
  StorageQuiescent();
  return first_error;
}

Status Warehouse::MaintainEvent(ViewEntry& entry, const UpdateEvent& event,
                                bool relevant, ViewStorage* storage,
                                RemoteAccessor* accessor,
                                Algorithm1Maintainer* maintainer) {
  if (entry.engine != EngineKind::kAlgorithm1) {
    // The discrimination network re-reads values from the source store, so
    // level 1 suffices and deferred drains stay convergent.
    const Update update = event.ToUpdate(*SourceOf(entry).store);
    if (entry.gdn != nullptr) return entry.gdn->Apply(update, storage);
    // Shard-bound "external" entry: the coordinator's engine computes the
    // membership deltas; only the delegate values track the base here.
    return storage->SyncUpdate(update);
  }
  // Screened out: delegate values must still track the base (§3.2).
  if (!relevant) return storage->SyncUpdate(event.ToUpdate());
  accessor->ClearError();
  accessor->set_current_event(&event);
  Status status = event.kind == UpdateKind::kModify &&
                          event.level == ReportingLevel::kOidsOnly
                      ? Level1ModifyRecheck(entry, event, storage, accessor)
                      : maintainer->Maintain(event.ToUpdate());
  accessor->set_current_event(nullptr);
  // A failed query-back surfaces through the accessor even when the step
  // itself reports success.
  return status.ok() ? accessor->last_error() : status;
}

}  // namespace gsv
