#ifndef GSV_WAREHOUSE_WAREHOUSE_H_
#define GSV_WAREHOUSE_WAREHOUSE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/algorithm1.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "query/explain.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/thread_pool.h"
#include "warehouse/aux_cache.h"
#include "warehouse/cost_model.h"
#include "warehouse/fault_injector.h"
#include "warehouse/monitor.h"
#include "warehouse/path_knowledge.h"
#include "warehouse/remote_accessor.h"
#include "warehouse/sharding.h"
#include "warehouse/update_batch.h"
#include "warehouse/update_event.h"
#include "warehouse/wrapper.h"

namespace gsv {

struct RecoveryPlan;
struct WarehouseDurability;

// The data warehouse of §5 / Figure 6: materialized views live here; base
// objects live at one or more autonomous sources that export update events
// and answer queries through their wrappers. Only the warehouse knows the
// view definitions. Views are bound to the source their entry belongs to;
// events reach them through one drain body (see "Event processing" below).
class Warehouse {
 public:
  enum class CacheMode {
    kNone,
    kLabelsOnly,  // §5.2 partial caching
    kFull,        // §5.2 full corridor caching
  };

  // Which maintenance engine a view runs on. DefineView picks it from the
  // definition: simple views (§4.2) run Algorithm 1; the §6 relaxations
  // (path expressions, AND/OR, WITHIN, DAG bases) run the discrimination
  // network (GDN).
  enum class EngineKind {
    kAlgorithm1,
    kGdn,
  };

  struct Options {
    // Builds the storage engine backing each §5.2 corridor cache this
    // warehouse creates in DefineView (one engine per cached view; null =
    // memory default). The delegate store's own engine is chosen by
    // whoever constructed `store` — the warehouse borrows, never owns, it.
    StorageEngineFactory aux_engine_factory;
  };

  // `store` holds this warehouse's delegates; must outlive the warehouse.
  explicit Warehouse(ObjectStore* store) : Warehouse(store, Options()) {}
  Warehouse(ObjectStore* store, Options options);
  ~Warehouse();

  // Attaches a source (Figure 6 allows several): installs a monitor at
  // `level` whose events flow into this warehouse, and a wrapper for
  // query-backs. `source_root` is the database root view entries refer to.
  // `name` identifies the source for DefineView; when empty, a name
  // "source<N>" is generated. Roots must be distinct across sources.
  Status ConnectSource(ObjectStore* source, Oid source_root,
                       ReportingLevel level, std::string name = "");

  // ---- Shard participation (partitioned OID space) ----
  //
  // A ShardedWarehouse coordinator runs K of these warehouses, each bound
  // to one slice of the interned OID space: shard `oid.id() & (K-1)` owns
  // the object. A bound warehouse materializes only the view members it
  // owns; maintenance ops for foreign members queue in the outbox for the
  // coordinator to redistribute, and foreign membership reads go through
  // the coordinator's resolver. Must be called before any DefineView;
  // `resolver` must outlive the warehouse.
  Status BindShard(uint32_t shard_index, uint32_t shard_mask,
                   const CrossShardResolver* resolver);
  bool sharded() const { return binding_.has_value(); }

  // ConnectSource without a monitor: the coordinator routes events here by
  // owning shard (re-stamped into this warehouse's per-source sequence
  // domain) through InjectRoutedEvent, which runs the normal delivery path
  // — fault injection, duplicate drop, gap detection — per shard.
  Status ConnectSourceRouted(ObjectStore* source, Oid source_root,
                             std::string name = "");
  void InjectRoutedEvent(size_t source_index, const UpdateEvent& event) {
    OnEvent(source_index, event);
  }

  // Drains the outbox (ops this shard produced for members other shards
  // own). The coordinator delivers them via the owners' ApplyForeignOps.
  std::vector<ForeignViewOp> TakeForeignOps() {
    return std::exchange(outbox_, {});
  }
  // Applies peer-produced ops for members this shard owns; ops targeting
  // other shards' members are skipped, so callers may pass whole producer
  // outboxes unfiltered. Ops naming a quarantined view are buffered into
  // its stale queue's blind spot — the post-resync recompute subsumes
  // them — and ops for unknown views fail.
  Status ApplyForeignOps(const std::vector<ForeignViewOp>& ops);

  // The deferred-drain verification sweep (see ProcessPendingBatch),
  // standalone.
  // Which members one view re-verifies against current source state:
  // `full` = all of them, otherwise only `suspects` (DESIGN §4b).
  struct SweepScope {
    bool full = false;
    std::vector<Oid> suspects;
  };
  // View name -> scope. Views absent from the plan are not swept.
  using SweepPlan = std::map<std::string, SweepScope>;

  // Full sweep: every fresh view re-verifies every member and drops the
  // underivable. Resync and recovery use it; it costs O(|view|).
  Status RunVerificationSweep();
  // Scoped sweep: each fresh view re-verifies the plan's suspects that it
  // holds as members (a full scope, or a view whose pre-batch exactness is
  // not established, sweeps fully). A sharded coordinator unions the
  // shards' recorded suspects (TakeSweepSuspects) per view and hands each
  // shard the ones it owns once the foreign ops landed. Verification reads
  // only the source and the membership sets, so either form declares a
  // storage quiescent point only when it deleted members: a paged
  // delegate store keeps the pages its readers use.
  Status RunVerificationSweep(const SweepPlan& plan);
  // The scopes a batch run with BatchOptions::run_sweep = false recorded,
  // per view; the record is cleared.
  SweepPlan TakeSweepSuspects();

  // Closes the current durability commit group (no-op when durability is
  // off). The coordinator commits each shard only after cross-shard ops
  // applied, so a shard's log never certifies a half-delivered batch.
  void CommitDurable() { LogCommit(); }

  // Highest event sequence integrated from `source_name` (0 when none) —
  // after recovery the coordinator restamps its router from this.
  uint64_t last_delivered_sequence(const std::string& source_name) const;

  // Parses "define mview NAME as: ...", materializes it from the current
  // source state (setup, not metered as maintenance cost), and starts
  // maintaining it. The definition must be simple (Algorithm 1's
  // precondition) and its entry must resolve to the root of `source_name`
  // (or of the sole connected source when `source_name` is empty).
  Status DefineView(std::string_view definition,
                    CacheMode cache_mode = CacheMode::kNone,
                    const std::string& source_name = "");

  // Installs §5.2 path knowledge used for screening (applies to all views).
  void SetPathKnowledge(PathKnowledge knowledge);

  // ---- Event processing: inline delivery and deferred drains ----
  //
  // Every event reaches the views through one drain body. Without deferral
  // each accepted event is drained on its own right after its update (the
  // §4.3 setting). With deferral enabled, monitor events queue instead, and
  // ProcessPendingBatch drains the queue in bulk; sources are autonomous
  // (§5), so a deferred drain reads the source's *current* state, not the
  // state right after each update. A drain:
  //
  //   1. coalesces the batch (UpdateBatch: insert+delete of the same edge
  //      cancel, modifies of one object merge last-writer-wins);
  //   2. lets each view's auxiliary cache (§5.2) absorb the batch, and
  //      screens (§5.1) once per distinct label and view: with level >= 2
  //      events the affected label is checked against the view's sel/cond
  //      labels, pruned further by path knowledge; irrelevant events only
  //      sync delegate values;
  //   3. evaluates the relevant events per view — Algorithm 1 over a
  //      RemoteAccessor that prefers event info and cache content and falls
  //      back to metered query-backs (level-1 modifies carry no values, so
  //      membership is re-derived by querying: the paper's "cannot do much
  //      other than sending queries"), or the GDN — with every view operation
  //      buffered (BufferedViewStorage). With threads > 1 the tasks (one per
  //      view and, on tree bases, one per independent root subtree) fan out
  //      across a worker pool. After the barrier the buffers replay into the
  //      real views single-threaded in a fixed order, so views and counters
  //      are deterministic. Replay is all-or-nothing per view: when any of
  //      its tasks hit a down source none replays, and the view quarantines
  //      with its events buffered;
  //   4. runs the verification sweep (deferred drains only). Evaluated
  //      against the current state, an event can disclaim responsibility
  //      that another queued event also disclaims (a modify whose corridor
  //      path a later delete already broke, under a delete that no longer
  //      sees the object in its subtree). Such misses are always stale
  //      *extras*, never missing members, so the sweep re-verifies the
  //      drain's *suspects* — members below a deleted select edge, above a
  //      deleted condition edge, or above a witness modified to a failing
  //      value (DESIGN §4b) — and drops the underivable ones, at a cost
  //      proportional to what the batch touched, not to |view|. The first
  //      drain after anything that rebuilt a view or its corridor from
  //      current state (recovery, a sharded resync, a failed maintenance
  //      step) re-verifies every member once instead. Checks run through
  //      the accessor: local with a full auxiliary cache, metered
  //      query-backs otherwise. The corridor caches prune what the batch
  //      detached only after that.
  //
  // Once the queue is drained each view equals its query over the
  // source's current state. Sources must not change during a drain (the
  // usual external synchronization).
  void set_deferred(bool deferred) { deferred_ = deferred; }
  bool deferred() const { return deferred_; }
  size_t pending_events() const { return pending_.size(); }

  struct BatchOptions {
    size_t threads = 1;  // worker pool size; <= 1 evaluates inline
    // A sharded coordinator defers these two: the sweep must wait for the
    // foreign ops of every shard to land, and the commit must not certify
    // a batch whose cross-shard ops are still in flight. With run_sweep
    // off the batch still collects its suspects (TakeSweepSuspects).
    bool run_sweep = true;
    bool log_commit = true;
  };
  // Drains the pending queue; returns the first error (processing
  // continues past errors so the queue always drains).
  Status ProcessPendingBatch(const BatchOptions& options);
  Status ProcessPendingBatch() { return ProcessPendingBatch(BatchOptions{}); }

  // ---- Fault tolerance (sequenced delivery, quarantine, resync) ----
  //
  // The warehouse–source channel is at-least-once: monitor events carry a
  // per-source sequence number, duplicates are dropped idempotently, and a
  // gap (lost delivery) quarantines every view of that source. A view also
  // quarantines when a query-back fails after retries or hits an open
  // circuit breaker. Quarantined (kStale) views keep serving reads from
  // their last consistent state; events for them are buffered. Each drain
  // first attempts to resync stale views — probe the source, recompute the
  // view from current source state (§4.4 path), rebuild the corridor
  // cache, replay the buffered events, and run the verification sweep —
  // so recovery is automatic once the source answers again.

  // Installs a deterministic fault model on `source_name`'s channel and
  // wrapper (nullptr detaches). The injector must outlive its installation.
  Status SetFaultInjector(const std::string& source_name,
                          FaultInjector* injector);

  // The wrapper of `source_name` (the sole source when empty); nullptr when
  // unknown. Exposed so callers can tune retry/breaker policies and probe.
  SourceWrapper* wrapper(const std::string& source_name = "");

  enum class ViewHealth {
    kFresh,  // maintained incrementally, consistent with delivered events
    kStale,  // quarantined: serving last consistent state, awaiting resync
  };
  ViewHealth view_health(const std::string& name) const;
  size_t stale_view_count() const;
  // Events buffered across all quarantined views, awaiting replay.
  size_t buffered_stale_events() const;

  // Forces a resync attempt for every quarantined view now (probing past
  // an open breaker). Returns Ok when no views remain stale.
  Status ResyncStaleViews();

  // ---- Durability (write-ahead log, checkpoints, crash recovery) ----
  //
  // EnableDurability attaches a WAL + checkpoint directory to this
  // warehouse. Every accepted update event and every applied view delta is
  // logged; a commit record (carrying the per-source sequence watermarks)
  // closes each group — one per drain, an inline event's included — and
  // certifies that the warehouse was quiescent when it was written.
  //
  // If `dir` already holds durable state, EnableDurability *recovers* it:
  // the latest valid checkpoint is loaded (delegate store, view
  // memberships, §5.2 corridor caches, watermarks), the committed log tail
  // is redone locally from the view-delta records (no source queries), and
  // the uncommitted tail — truncated at the first record past the last
  // commit, which subsumes any torn write — is replayed through live
  // maintenance by re-delivering its events. A torn log additionally
  // quarantines every view (an accepted event may have been lost in the
  // tear), so the first drain resyncs from current source state — the PR 2
  // fallback for an unusable log. Sources must be connected (same names)
  // before calling; views must not be defined when recovering state.
  struct DurabilityOptions {
    std::string dir;  // WAL segments + checkpoints live here
    FsyncPolicy fsync = FsyncPolicy::kCommit;
    // Automatically checkpoint at the first quiescent commit after this
    // many logged events (0 = only explicit WriteCheckpoint calls).
    uint64_t checkpoint_interval_events = 0;
    // Replication fencing (see wal.h FenceInfo): when epoch > 0 the WAL
    // claims the directory fence on open, stamps kEpoch headers into its
    // segments, and every append re-checks the fence — a promoted replica
    // raising the fence cuts this writer off at its next log write.
    uint64_t epoch = 0;
    std::string owner;
  };

  struct RecoveryReport {
    bool recovered_checkpoint = false;
    uint64_t checkpoint_id = 0;     // id of the checkpoint restored
    size_t views_restored = 0;      // adopted from the checkpoint image
    size_t views_redefined = 0;     // re-bootstrapped from kViewDef records
    size_t deltas_redone = 0;       // committed-zone deltas applied locally
    size_t events_replayed = 0;     // uncommitted tail events re-delivered
    size_t tail_deltas_dropped = 0; // uncommitted deltas discarded
    bool log_torn = false;          // a torn/corrupt record was truncated
    uint64_t torn_bytes = 0;
    bool caches_reloaded = false;   // corridor caches came from the image
  };

  struct DurabilityStats {
    int64_t events_logged = 0;
    int64_t deltas_logged = 0;
    int64_t commits_logged = 0;
    int64_t checkpoints_written = 0;
  };

  Status EnableDurability(const DurabilityOptions& options);
  bool durable() const { return durability_ != nullptr; }
  // Snapshots the warehouse at the current quiescent point (pending queue
  // must be empty): delegate store, corridor caches, watermarks and view
  // definitions, then rolls the log and retires segments older than the
  // previous retained checkpoint. Never blocks concurrent readers — the
  // capture reads through the store's published index snapshots.
  Status WriteCheckpoint();
  // What EnableDurability recovered (zeroed on a fresh directory).
  const RecoveryReport& recovery_report() const;
  const DurabilityStats& durability_stats() const;
  // The live log (null when durability is off). Exposed for tests and
  // tools (crash injection, forced sync).
  Wal* wal();

  MaterializedView* view(const std::string& name);
  // Names of the defined views, in definition order.
  std::vector<std::string> view_names() const;
  const Algorithm1Maintainer* maintainer(const std::string& name) const;
  const AuxiliaryCache* cache(const std::string& name) const;
  // Engine introspection (kAlgorithm1 for unknown names).
  EngineKind view_engine(const std::string& name) const;
  const GdnEngine* gdn_engine(const std::string& name) const;
  // Checkpoint-manifest plumbing a coordinator uses to rebuild its own
  // engines after recovery: the original definition text and source name.
  std::string view_definition_text(const std::string& name) const;
  std::string view_source(const std::string& name) const;
  // Per-view maintenance explanation (engine kind, GDN network size and
  // propagation counters); shards = 1.
  ShardedViewExplanation ExplainView(const std::string& name) const;

  ObjectStore& store() { return *store_; }
  WarehouseCosts& costs() { return costs_; }
  const Status& last_status() const { return last_status_; }
  // The monitor of the sole source (legacy convenience; null when the
  // warehouse has several sources).
  SourceMonitor* monitor();
  size_t source_count() const { return sources_.size(); }

 private:
  struct SourceEntry {
    std::string name;
    ObjectStore* store = nullptr;
    Oid root;
    std::unique_ptr<SourceWrapper> wrapper;
    std::unique_ptr<SourceMonitor> monitor;
    // Channel fault model (not owned; also installed on the wrapper).
    FaultInjector* injector = nullptr;
    // Sequence expected from the next monitor event (events with
    // sequence 0 are unsequenced and bypass the checks).
    uint64_t next_sequence = 1;
  };

  struct ViewEntry {
    explicit ViewEntry(ViewDefinition d) : def(std::move(d)) {}
    size_t source_index = 0;
    ViewDefinition def;
    std::string definition_text;  // original text, for checkpoint manifests
    CacheMode cache_mode = CacheMode::kNone;
    // The constant corridor (simple views only; null for GDN views),
    // shared with every maintainer a drain task builds.
    std::shared_ptr<const SimpleCorridor> corridor;
    std::set<std::string> relevant_labels;  // feasible corridor labels
    bool modify_relevant = false;           // can a modify affect membership?
    std::unique_ptr<MaterializedView> view;
    // Shard scoping decorator (bound warehouses only): owned ops hit
    // `view`, foreign ops queue in the warehouse outbox.
    std::unique_ptr<ShardScopedStorage> scoped;
    std::unique_ptr<AuxiliaryCache> cache;
    std::unique_ptr<RemoteAccessor> accessor;
    // Exactly one engine drives membership. A shard-bound warehouse keeps
    // gdn null even when `engine` says otherwise: the coordinator owns one
    // network over the whole source and redistributes the deltas, so the
    // shard entry only syncs delegate values ("external" entry).
    EngineKind engine = EngineKind::kAlgorithm1;
    std::unique_ptr<Algorithm1Maintainer> maintainer;
    std::unique_ptr<GdnEngine> gdn;
    // Last-flushed network counters (StorageQuiescent cost-sheet deltas).
    GdnEngine::Stats gdn_flushed;
    // Where maintenance writes: the scoped storage when sharded, the view
    // itself otherwise.
    ViewStorage* storage() {
      return scoped != nullptr ? static_cast<ViewStorage*>(scoped.get())
                               : view.get();
    }
    // Quarantine state: a stale view serves its last consistent contents;
    // events arriving while stale buffer here for post-resync replay.
    bool stale = false;
    std::vector<UpdateEvent> stale_events;
    Status stale_cause;  // why the view quarantined (Ok when fresh)
    // The next sweep must re-verify every member: the view or its corridor
    // is not known to be exact for the pre-batch state (recovered, resynced
    // as a shard, or a maintenance step failed), so suspects from the
    // batch's events alone would not cover its stale extras.
    bool sweep_full_due = false;
  };

  // One view's share of a verification sweep. Suspects come from `events`
  // (unless `full`); with `verify` off the job only collects them.
  struct SweepJob {
    ViewEntry* entry = nullptr;
    bool full = false;
    bool verify = true;
    std::vector<const UpdateEvent*> events;
    std::vector<Oid> suspects;
    std::vector<Oid> doomed;
    Status status;
  };

  void OnEvent(size_t source_index, const UpdateEvent& event);
  // Sequence accounting for one delivered event: drops duplicates, detects
  // gaps (quarantining the source's views), then queues or drains it.
  void Deliver(size_t source_index, const UpdateEvent& event);
  // (source index, event) of a batch, in arrival order.
  using EventRef = std::pair<size_t, const UpdateEvent*>;
  // The one drain body (see ProcessPendingBatch) over `events`. An inline
  // drain is one event right after its update: it resyncs only that
  // source's stale views, skips the verification sweep (§4.3 holds right
  // after the update) and counts events_local_only.
  Status Drain(std::span<const EventRef> events, const BatchOptions& options,
               bool inline_event);
  // Quarantine entry points.
  void Quarantine(ViewEntry& entry, const Status& cause);
  void BufferStaleEvent(ViewEntry& entry, const UpdateEvent& event);
  void QuarantineSourceViews(size_t source_index, const Status& cause);
  // One resync attempt; leaves the view stale when the source still fails.
  Status TryResyncView(ViewEntry& entry, bool force);
  // One event's step for one view over `storage`, reading through
  // `accessor` (`maintainer`, null for GDN views, is bound to the same
  // pair): a screened-out event only syncs delegate values (§3.2); a
  // relevant one runs the level-1 recheck, Algorithm 1, or the GDN.
  // Returns the first error, a failed query-back included. Serves the
  // drain workers and the resync replay.
  Status MaintainEvent(ViewEntry& entry, const UpdateEvent& event,
                       bool relevant, ViewStorage* storage,
                       RemoteAccessor* accessor,
                       Algorithm1Maintainer* maintainer);
  // The §5.1 local screening predicate (level >= 2 events only).
  bool EventRelevant(const ViewEntry& entry, const UpdateEvent& event) const;
  // Appends to `suspects` the members `events` may have left underivable
  // (DESIGN §4b), searched on the current source state through `accessor`;
  // read-only (usable from a worker thread).
  Status CollectSuspects(const ViewEntry& entry, RemoteAccessor* accessor,
                         const std::vector<const UpdateEvent*>& events,
                         std::vector<Oid>* suspects);
  // Collects the members among `candidates` whose derivation/condition
  // fails on the current source state; read-only (usable from a worker
  // thread). Aborts with the accessor's error when a query-back fails — an
  // empty answer from a down source is not evidence a member is
  // underivable.
  Status CollectUnderivable(ViewEntry& entry, RemoteAccessor* accessor,
                            const OidSet& candidates,
                            std::vector<Oid>* doomed);
  // The one sweep routine: runs `jobs` read-only (on `pool` when given,
  // else inline), then applies the deletions in job order. A job whose
  // source failed quarantines its view; returns the first other error.
  Status RunSweepJobs(std::vector<SweepJob>* jobs, ThreadPool* pool);
  // A drain's sweep: one job per fresh Algorithm 1 view whose source sent
  // `events` (only recording the suspects when `verify` is off), then
  // PruneCaches().
  Status SweepDrain(std::span<const EventRef> events, bool verify,
                    ThreadPool* pool);
  // Full single-view sweep (resync epilogue); a no-op for general views.
  Status VerifyMembers(ViewEntry& entry);
  // Removes the objects each corridor cache detached since the last call;
  // runs after the sweep, whose suspect search reads detached subtrees.
  void PruneCaches();
  // Level-1 modify handling over a storage/accessor pair (MaintainEvent's).
  Status Level1ModifyRecheck(ViewEntry& entry, const UpdateEvent& event,
                             ViewStorage* storage, BaseAccessor* accessor);
  void RecomputeRelevantLabels(ViewEntry& entry);
  // Declares a storage quiescent point: no `const Object*` from the
  // delegate store or a corridor cache is live past this call, so a paged
  // engine may evict back down to its buffer-pool budget. Runs at the end
  // of every drain (inline ones included) / resync / checkpoint, and
  // flushes the engines' buffer-pool counter deltas onto the cost sheet.
  void StorageQuiescent();
  // Lazily builds/resizes the worker pool for `threads` workers.
  ThreadPool* Pool(size_t threads);
  // Shared body of ConnectSource / ConnectSourceRouted.
  Status ConnectSourceInternal(ObjectStore* source, Oid source_root,
                               ReportingLevel level, std::string name,
                               bool install_monitor);
  // Drops members of `entry` that another shard owns (no-op unbound). A
  // full materialization — Initialize or a resync recompute — derives the
  // whole view; the foreign members belong to the peers. With
  // `export_members` set each pruned member is first exported as a foreign
  // V_insert so owners that missed the underlying events converge (the
  // resync path); DefineView prunes silently since every shard runs the
  // same initialization.
  void PruneForeignMembers(ViewEntry& entry, bool export_members);

  // ---- Durability internals (warehouse_durability.cc) ----
  // Resolves a source by name (the sole source when empty).
  Result<size_t> ResolveSourceIndex(const std::string& source_name) const;
  // Parses + validates a definition and builds a ViewEntry with its view,
  // cache and maintainer objects constructed but nothing initialized.
  Result<std::unique_ptr<ViewEntry>> BuildViewEntry(size_t source_index,
                                                    std::string_view definition,
                                                    CacheMode cache_mode);
  // Logging hooks; all no-ops when durability is off or paused.
  void LogEvent(const SourceEntry& source, const UpdateEvent& event);
  void LogViewDef(const std::string& definition, CacheMode cache_mode,
                  const std::string& source_name);
  void LogCommit();
  // Points the view's delta sink at the WAL (no-op when durability is off).
  void AttachSink(MaterializedView* view);
  // Recovery steps.
  Status RestoreFromPlan(const RecoveryPlan& plan);
  Status RestoreView(const CheckpointViewState& state, bool adopt);
  Status RedoDelta(const WalRecord& record);

  SourceEntry& SourceOf(const ViewEntry& entry) {
    return *sources_[entry.source_index];
  }

  struct ShardBinding {
    uint32_t shard_index = 0;
    uint32_t shard_mask = 0;
    const CrossShardResolver* resolver = nullptr;
  };

  ObjectStore* store_;
  Options options_;
  std::vector<std::unique_ptr<SourceEntry>> sources_;
  PathKnowledge knowledge_;
  WarehouseCosts costs_;
  std::vector<std::unique_ptr<ViewEntry>> views_;
  std::optional<ShardBinding> binding_;
  std::vector<ForeignViewOp> outbox_;
  SweepPlan recorded_sweep_;  // run_sweep = false batches (coordinator)
  bool deferred_ = false;
  std::vector<std::pair<size_t, UpdateEvent>> pending_;
  Status last_status_;
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_threads_ = 0;
  // Last-flushed delegate-store paging counters (StorageQuiescent deltas).
  int64_t flushed_page_faults_ = 0;
  int64_t flushed_page_evictions_ = 0;
  int64_t flushed_writeback_bytes_ = 0;
  int64_t flushed_swizzle_hits_ = 0;
  int64_t flushed_swizzle_misses_ = 0;
  // Durability state (WAL, stats, recovery report); null when disabled.
  std::unique_ptr<WarehouseDurability> durability_;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_WAREHOUSE_H_
