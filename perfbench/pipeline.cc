// End-to-end freshness benchmark: source update -> visible view.
//
// One run builds a source world from the seed, pre-generates the update
// stream on a twin world (outside the timed region), sets the warehouse up
// and then drives it as a single-threaded open loop for `--seconds`:
//
//   * update i is due at start + i/R and is applied to the source store
//     through ObjectStore::Apply (plus PutAtomic for a fresh leaf);
//   * a drain (ProcessPendingBatch) is due every T ms of schedule time; a
//     drain that overruns starts the next one at once;
//   * the time left before the next due point is filled with closed-loop
//     view reads that are expected to finish in time, else the loop sleeps.
//
// Freshness is measured from an update's due time to the return of the
// drain that commits it (and, on alg1-tree, to the first follower poll that
// applied that commit). Every layer is measured from outside: the bench
// times its own calls into each module and reads the counters the modules
// expose. After the stream the run checks every view against a §4.4
// recompute, the follower against the primary, and a recovered warehouse
// against the pre-restart contents; any mismatch exits 1 with no result.
//
// Usage:
//   pipeline --workload alg1-tree|gdn-dag|sharded-read --seed N
//            --seconds S --trace 0|1 --out DIR
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones (and DIR/trace.jsonl receives the spans).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "oem/paged_engine.h"
#include "oem/store.h"
#include "perfbench/stream_gen.h"
#include "replication/log_transport.h"
#include "replication/replica.h"
#include "storage/wal.h"
#include "util/random.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "workload/dag_gen.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace {

using namespace gsv;  // NOLINT(build/namespaces)
using Clock = std::chrono::steady_clock;
using ContentLines = std::vector<std::pair<Oid, std::string>>;

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "pipeline: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) { return Seconds(d) * 1e3; }
double Micros(Clock::duration d) { return Seconds(d) * 1e6; }

// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Mean of the values between the first and third quartile (nearest rank).
double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t lo = values.size() / 4;
  const size_t hi = std::max(values.size() - values.size() / 4, lo + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double RssMiB() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------ workloads

// Source worlds: a TreeGen tree of 9331 objects (alg1-tree, sharded-read)
// or a DagGen layered DAG of 1601 objects (gdn-dag).
constexpr size_t kTreeLevels = 5;
constexpr size_t kTreeFanout = 6;
constexpr size_t kDagLevels = 4;
constexpr size_t kDagWidth = 400;

enum class Kind { kAlg1Tree, kGdnDag, kShardedRead };

struct ViewSpec {
  std::string name;
  std::string definition;
  Warehouse::CacheMode cache = Warehouse::CacheMode::kNone;
  bool general = false;  // expected on the GDN engine
};

struct WorkloadConfig {
  Kind kind;
  std::string name;
  double rate = 0;         // R: updates per second
  double tick_ms = 0;      // T: drain period
  size_t checkpoint_every = 0;  // updates between checkpoints
  uint32_t shards = 1;
  size_t drain_threads = 1;
  ReportingLevel level = ReportingLevel::kWithValues;
  FsyncPolicy fsync = FsyncPolicy::kNever;
  bool replica = false;
  // Stream shape.
  UpdateMode mode = UpdateMode::kTreePreserving;
  double p_insert = 0.2;
  double p_delete = 0.2;
  double p_modify = 0.6;
  // Views read by the closed-loop reader, with their draw weights.
  std::vector<std::pair<std::string, double>> read_mix;
};

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "alg1-tree") {
    c.kind = Kind::kAlg1Tree;
    c.rate = 60;
    c.tick_ms = 100;
    c.checkpoint_every = 300;
    c.level = ReportingLevel::kWithValues;
    c.fsync = FsyncPolicy::kCommit;
    c.replica = true;
    c.read_mix = {{"A2", 0.95}, {"A7", 0.05}};
  } else if (name == "gdn-dag") {
    c.kind = Kind::kGdnDag;
    c.rate = 250;
    c.tick_ms = 10;
    c.checkpoint_every = 1500;
    c.level = ReportingLevel::kOidsOnly;
    c.fsync = FsyncPolicy::kNever;
    c.mode = UpdateMode::kDagPreserving;
    c.p_insert = 0.4;
    c.p_delete = 0.3;
    c.p_modify = 0.3;
    c.read_mix = {{"G2", 0.2}, {"G0", 0.75}, {"G1", 0.05}};
  } else if (name == "sharded-read") {
    c.kind = Kind::kShardedRead;
    c.rate = 50;
    c.tick_ms = 25;
    c.checkpoint_every = 300;
    c.shards = 4;
    c.drain_threads = 2;
    c.level = ReportingLevel::kWithValues;
    c.fsync = FsyncPolicy::kNever;
    c.read_mix = {{"S0", 0.2}, {"S1", 0.77}, {"S3", 0.03}};
  } else {
    Fail("unknown workload '" + name + "'");
  }
  return c;
}

// Views per workload. Tree views select depth s of a levels-5 tree whose
// depth-s nodes satisfy "some age leaf below <= bound".
std::vector<ViewSpec> ViewsFor(const WorkloadConfig& c, const Oid& root) {
  using Cache = Warehouse::CacheMode;
  const std::string r = root.str();
  std::vector<ViewSpec> views;
  auto tree_view = [&](const std::string& name, size_t depth, int64_t bound,
                       Cache cache) {
    views.push_back({name,
                     TreeViewDefinition(name, root, depth, kTreeLevels, bound),
                     cache, false});
  };
  auto general = [&](const std::string& name, const std::string& tail) {
    views.push_back(
        {name, "define mview " + name + " as: SELECT " + r + tail,
         Cache::kNone, true});
  };
  switch (c.kind) {
    case Kind::kAlg1Tree:
      tree_view("A0", 1, 0, Cache::kNone);
      tree_view("A1", 2, 0, Cache::kNone);
      tree_view("A2", 2, 1, Cache::kNone);
      tree_view("A3", 3, 1, Cache::kNone);
      tree_view("A4", 3, 3, Cache::kFull);
      tree_view("A5", 4, 2, Cache::kNone);
      tree_view("A6", 4, 5, Cache::kNone);
      tree_view("A7", 4, 8, Cache::kFull);
      break;
    case Kind::kGdnDag:
      general("G0", ".* X WHERE X.age <= 30");
      general("G1", ".?.?.? X WHERE X.age > 20 AND X.age <= 70");
      general("G2", ".* X WHERE X.age <= 10 OR X.age > 90");
      general("G3", ".d1.?.? X WHERE X.age > 80");
      break;
    case Kind::kShardedRead:
      tree_view("S0", 2, 5, Cache::kNone);
      tree_view("S1", 3, 20, Cache::kNone);
      tree_view("S2", 4, 30, Cache::kNone);
      tree_view("S3", 4, 60, Cache::kNone);
      general("S4", ".?.?.?.? X WHERE X.age > 20 AND X.age <= 70");
      general("S5", ".* X WHERE X.age <= 10 OR X.age > 90");
      break;
  }
  return views;
}

// Builds the source world for the workload into `store`; returns its root.
Oid BuildWorld(const WorkloadConfig& c, uint64_t seed, ObjectStore* store) {
  if (c.kind == Kind::kGdnDag) {
    DagGenOptions options;
    options.levels = kDagLevels;
    options.width = kDagWidth;
    options.min_parents = 1;
    options.max_parents = 3;
    options.seed = seed;
    options.oid_prefix = "D";
    auto dag = GenerateDag(store, options);
    Check(dag.status(), "GenerateDag");
    return dag->root;
  }
  TreeGenOptions options;
  options.levels = kTreeLevels;
  options.fanout = kTreeFanout;
  options.seed = seed;
  options.oid_prefix = "T";
  auto tree = GenerateTree(store, options);
  Check(tree.status(), "GenerateTree");
  return tree->root;
}

// One pre-generated source update; `fresh` marks an insert whose child is a
// new atomic leaf that replay must create first.
struct StreamStep {
  Update update;
  bool fresh = false;
  std::string fresh_label;
  Value fresh_value;
};

std::vector<StreamStep> PregenerateStream(const WorkloadConfig& c,
                                          uint64_t seed, size_t count) {
  // The twin lives only inside this function: it is freed before the
  // warehouse is built, so it never shows in the resident set.
  ObjectStore twin;
  Oid root = BuildWorld(c, seed, &twin);
  UpdateGenOptions options;
  options.mode = c.mode;
  options.p_insert = c.p_insert;
  options.p_delete = c.p_delete;
  options.p_modify = c.p_modify;
  options.seed = seed * 7919 + 17;
  options.oid_prefix = "U";
  perfbench::StreamGenerator generator(&twin, root, options);
  std::vector<StreamStep> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t before = twin.size();
    auto update = generator.Step();
    Check(update.status(), "pre-generating update " + std::to_string(i));
    StreamStep step;
    step.update = std::move(*update);
    if (step.update.kind == UpdateKind::kInsert && twin.size() > before) {
      const Object* leaf = twin.Get(step.update.child);
      if (leaf == nullptr) Fail("fresh leaf vanished during pre-generation");
      step.fresh = true;
      step.fresh_label = leaf->label();
      step.fresh_value = leaf->value();
    }
    stream.push_back(std::move(step));
  }
  return stream;
}

ContentLines RecomputeLines(const ObjectStore& source,
                            const std::string& definition) {
  auto def = ViewDefinition::Parse(definition);
  Check(def.status(), "parse for recompute");
  ObjectStore scratch;
  MaterializedView view(&scratch, *def);
  Check(view.Initialize(source), "recompute");
  return ViewContentLines(view);
}

// ------------------------------------------------------------- counters

// Every counter the modules expose that the per-layer report needs, read
// at one instant. Deltas of two snapshots give the timed phase's work.
struct Counters {
  int64_t src_lookups = 0, src_edges = 0, src_index_probes = 0;
  int64_t events_received = 0, screened_out = 0, coalesced = 0;
  int64_t source_queries = 0, objects_shipped = 0, values_shipped = 0;
  int64_t cache_maint_queries = 0, cache_hits = 0, cache_misses = 0;
  int64_t cross_shard_exports = 0;
  int64_t gdn_propagations = 0, gdn_created = 0, gdn_freed = 0;
  int64_t gdn_rebuilds = 0;
  int64_t page_faults = 0, page_evictions = 0, writeback_bytes = 0;
  int64_t swizzle_hits = 0, swizzle_misses = 0;
  int64_t alg1_updates = 0, alg1_matched = 0, alg1_rechecks = 0;
  int64_t alg1_vops = 0;
  int64_t wal_bytes = 0, wal_records = 0, commits = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.src_lookups = src_lookups - o.src_lookups;
    d.src_edges = src_edges - o.src_edges;
    d.src_index_probes = src_index_probes - o.src_index_probes;
    d.events_received = events_received - o.events_received;
    d.screened_out = screened_out - o.screened_out;
    d.coalesced = coalesced - o.coalesced;
    d.source_queries = source_queries - o.source_queries;
    d.objects_shipped = objects_shipped - o.objects_shipped;
    d.values_shipped = values_shipped - o.values_shipped;
    d.cache_maint_queries = cache_maint_queries - o.cache_maint_queries;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cross_shard_exports = cross_shard_exports - o.cross_shard_exports;
    d.gdn_propagations = gdn_propagations - o.gdn_propagations;
    d.gdn_created = gdn_created - o.gdn_created;
    d.gdn_freed = gdn_freed - o.gdn_freed;
    d.gdn_rebuilds = gdn_rebuilds - o.gdn_rebuilds;
    d.page_faults = page_faults - o.page_faults;
    d.page_evictions = page_evictions - o.page_evictions;
    d.writeback_bytes = writeback_bytes - o.writeback_bytes;
    d.swizzle_hits = swizzle_hits - o.swizzle_hits;
    d.swizzle_misses = swizzle_misses - o.swizzle_misses;
    d.alg1_updates = alg1_updates - o.alg1_updates;
    d.alg1_matched = alg1_matched - o.alg1_matched;
    d.alg1_rechecks = alg1_rechecks - o.alg1_rechecks;
    d.alg1_vops = alg1_vops - o.alg1_vops;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.wal_records = wal_records - o.wal_records;
    d.commits = commits - o.commits;
    return d;
  }
};

void AddCosts(const WarehouseCosts& w, Counters* c) {
  c->events_received += w.events_received.load();
  c->screened_out += w.events_screened_out.load();
  c->coalesced += w.events_coalesced.load();
  c->source_queries += w.source_queries.load();
  c->objects_shipped += w.objects_shipped.load();
  c->values_shipped += w.values_shipped.load();
  c->cache_maint_queries += w.cache_maintenance_queries.load();
  c->cache_hits += w.cache_hits.load();
  c->cache_misses += w.cache_misses.load();
  c->cross_shard_exports += w.cross_shard_exports.load();
  c->gdn_propagations += w.gdn_propagations.load();
  c->gdn_created += w.gdn_matches_created.load();
  c->gdn_freed += w.gdn_matches_freed.load();
  c->gdn_rebuilds += w.gdn_rebuilds.load();
}

void AddDelegateMetrics(const StoreMetrics& m, Counters* c) {
  c->page_faults += m.page_faults.load();
  c->page_evictions += m.page_evictions.load();
  c->writeback_bytes += m.page_writeback_bytes.load();
  c->swizzle_hits += m.swizzle_hits.load();
  c->swizzle_misses += m.swizzle_misses.load();
}

// Algorithm 1, WAL and commit counters of one (shard) warehouse.
void AddWarehouse(Warehouse& w, Counters* c) {
  for (const std::string& name : w.view_names()) {
    const Algorithm1Maintainer* m = w.maintainer(name);
    if (m == nullptr) continue;
    c->alg1_updates += m->stats().updates;
    c->alg1_matched += m->stats().matched;
    c->alg1_rechecks += m->stats().rechecks;
    c->alg1_vops += m->stats().v_inserts + m->stats().v_deletes;
  }
  if (Wal* wal = w.wal()) {
    c->wal_bytes += wal->bytes_written();
    c->wal_records += static_cast<int64_t>(wal->next_lsn()) - 1;
  }
  if (w.durable()) c->commits += w.durability_stats().commits_logged;
}

void AddSource(const ObjectStore& source, Counters* c) {
  const StoreMetrics& m = source.metrics();
  c->src_lookups += m.lookups.load();
  c->src_edges += m.edges_traversed.load();
  c->src_index_probes += m.index_probes.load();
}

// ------------------------------------------------------------ the target

// The warehouse under test, behind the handful of calls the loop makes.
class Target {
 public:
  virtual ~Target() = default;
  virtual Status Drain() = 0;
  virtual Status Checkpoint() = 0;
  // One closed-loop read; returns the number of content lines served.
  virtual size_t Read(const std::string& view) = 0;
  virtual ContentLines Contents(const std::string& view) = 0;
  virtual size_t StaleViews() const = 0;
  // Commit LSN the follower must reach to show the last drain (0 = none).
  virtual uint64_t CommitLsn() = 0;
  // WAL bytes written so far, over every shard.
  virtual int64_t WalBytes() = 0;
  virtual void Snapshot(Counters* c) = 0;
  // Per-drain shard timing proxies (sharded only).
  virtual const std::vector<ShardedWarehouse::DrainTiming>* DrainTimings() {
    return nullptr;
  }
  virtual Warehouse::RecoveryReport Report() = 0;
};

class SingleTarget : public Target {
 public:
  SingleTarget(const WorkloadConfig& c, ObjectStore* source, const Oid& root,
               const std::string& dir)
      : c_(c), source_(source), root_(root), dir_(dir),
        warehouse_(&store_) {}

  // Construction through the first checkpoint; appends DefineView times.
  Status Setup(const std::vector<ViewSpec>& views, bool recover,
               std::vector<double>* define_us) {
    GSV_RETURN_IF_ERROR(
        warehouse_.ConnectSource(source_, root_, c_.level, "src"));
    warehouse_.set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = dir_;
    options.fsync = c_.fsync;
    GSV_RETURN_IF_ERROR(warehouse_.EnableDurability(options));
    if (recover) return Status::Ok();
    for (const ViewSpec& spec : views) {
      auto start = Clock::now();
      GSV_RETURN_IF_ERROR(warehouse_.DefineView(spec.definition, spec.cache));
      if (define_us != nullptr) define_us->push_back(Micros(Clock::now() - start));
      Warehouse::EngineKind want = spec.general
                                       ? Warehouse::EngineKind::kGdn
                                       : Warehouse::EngineKind::kAlgorithm1;
      if (warehouse_.view_engine(spec.name) != want) {
        return Status::FailedPrecondition(spec.name +
                                          " is on an unexpected engine");
      }
    }
    return warehouse_.WriteCheckpoint();
  }

  Status Drain() override { return warehouse_.ProcessPendingBatch(); }
  Status Checkpoint() override { return warehouse_.WriteCheckpoint(); }
  size_t Read(const std::string& view) override {
    MaterializedView* v = warehouse_.view(view);
    return v == nullptr ? 0 : ViewContentLines(*v).size();
  }
  ContentLines Contents(const std::string& view) override {
    MaterializedView* v = warehouse_.view(view);
    return v == nullptr ? ContentLines{} : ViewContentLines(*v);
  }
  size_t StaleViews() const override { return warehouse_.stale_view_count(); }
  uint64_t CommitLsn() override { return warehouse_.wal()->next_lsn() - 1; }
  int64_t WalBytes() override { return warehouse_.wal()->bytes_written(); }
  void Snapshot(Counters* c) override {
    *c = Counters();
    AddSource(*source_, c);
    AddCosts(warehouse_.costs(), c);
    AddDelegateMetrics(store_.metrics(), c);
    AddWarehouse(warehouse_, c);
  }
  Warehouse::RecoveryReport Report() override {
    return warehouse_.recovery_report();
  }
  Warehouse& warehouse() { return warehouse_; }

 private:
  const WorkloadConfig& c_;
  ObjectStore* source_;
  Oid root_;
  std::string dir_;
  ObjectStore store_;
  Warehouse warehouse_;
};

class ShardedTarget : public Target {
 public:
  ShardedTarget(const WorkloadConfig& c, ObjectStore* source, const Oid& root,
                const std::string& dir, const std::string& engine_dir)
      : c_(c), source_(source), root_(root), dir_(dir),
        warehouse_(c.shards, EngineOptions(engine_dir)) {}

  Status Setup(const std::vector<ViewSpec>& views, bool recover,
               std::vector<double>* define_us) {
    GSV_RETURN_IF_ERROR(warehouse_.init_status());
    GSV_RETURN_IF_ERROR(
        warehouse_.ConnectSource(source_, root_, c_.level, "src"));
    warehouse_.set_deferred(true);
    ShardedWarehouse::DurabilityOptions options;
    options.dir = dir_;
    options.fsync = c_.fsync;
    GSV_RETURN_IF_ERROR(warehouse_.EnableDurability(options));
    if (recover) return Status::Ok();
    for (const ViewSpec& spec : views) {
      auto start = Clock::now();
      GSV_RETURN_IF_ERROR(warehouse_.DefineView(spec.definition));
      if (define_us != nullptr) define_us->push_back(Micros(Clock::now() - start));
    }
    return warehouse_.WriteCheckpoint();
  }

  Status Drain() override {
    return warehouse_.ProcessPendingBatch(c_.drain_threads);
  }
  Status Checkpoint() override { return warehouse_.WriteCheckpoint(); }
  size_t Read(const std::string& view) override {
    return warehouse_.ViewContents(view).size();
  }
  ContentLines Contents(const std::string& view) override {
    return warehouse_.ViewContents(view);
  }
  size_t StaleViews() const override { return warehouse_.stale_view_count(); }
  uint64_t CommitLsn() override { return 0; }
  int64_t WalBytes() override {
    int64_t bytes = 0;
    for (uint32_t i = 0; i < warehouse_.shard_count(); ++i) {
      bytes += warehouse_.shard(i).wal()->bytes_written();
    }
    return bytes;
  }
  void Snapshot(Counters* c) override {
    *c = Counters();
    AddSource(*source_, c);
    AddCosts(warehouse_.MergedCosts(), c);
    AddDelegateMetrics(warehouse_.MergedDelegateMetrics(), c);
    for (uint32_t i = 0; i < warehouse_.shard_count(); ++i) {
      AddWarehouse(warehouse_.shard(i), c);
    }
  }
  const std::vector<ShardedWarehouse::DrainTiming>* DrainTimings() override {
    return &warehouse_.drain_timings();
  }
  Warehouse::RecoveryReport Report() override {
    Warehouse::RecoveryReport sum;
    for (uint32_t i = 0; i < warehouse_.shard_count(); ++i) {
      const auto& r = warehouse_.shard(i).recovery_report();
      sum.deltas_redone += r.deltas_redone;
      sum.events_replayed += r.events_replayed;
    }
    return sum;
  }

  // Each shard's delegates live on the paged engine, with a buffer pool
  // smaller than the shard's share of the delegates.
  static std::string EngineSpec() {
    return "paged:pool=" + std::to_string(kPoolPages) +
           ":page_bytes=" + std::to_string(kPageBytes) + ":codec=" + kCodec;
  }

 private:
  static constexpr uint64_t kPoolPages = 8;
  static constexpr uint64_t kPageBytes = 4096;
  static constexpr const char* kCodec = "gsvz";

  static ShardedWarehouse::Options EngineOptions(const std::string& dir) {
    PagedEngineOptions paged;
    paged.dir = dir;
    paged.page_bytes = kPageBytes;
    paged.pool_pages = kPoolPages;
    paged.codec = kCodec;
    paged.wipe_on_close = true;
    ShardedWarehouse::Options options;
    options.engine_factory = MakePagedEngineFactory(paged);
    return options;
  }

  const WorkloadConfig& c_;
  ObjectStore* source_;
  Oid root_;
  std::string dir_;
  ShardedWarehouse warehouse_;
};

// ---------------------------------------------------------------- tracing

// In-memory spans around every call the loop makes into the program. Each
// span carries the drain tick it belongs to, its parent span, and the
// source-query / WAL-byte counters at both ends. Written out at the end.
struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into spans, -1 for a root
  int64_t tick;
  uint64_t lsn;    // follower polls: applied LSN reached
  int64_t queries_begin, queries_end;
  int64_t wal_begin, wal_end;
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}
  bool enabled() const { return enabled_; }

  // Opens a span; returns its id (-1 when tracing is off).
  int64_t Begin(const char* name, const char* layer, int64_t parent,
                int64_t tick, Target* target) {
    if (!enabled_) return -1;
    auto t = Clock::now();
    Span span{name, layer, Ns(t), 0, parent, tick, 0, 0, 0, 0, 0};
    if (target != nullptr) {
      target->Snapshot(&scratch_);
      span.queries_begin = scratch_.source_queries;
      span.wal_begin = scratch_.wal_bytes;
    }
    spans_.push_back(span);
    overhead_ += Clock::now() - t;
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id, Target* target) {
    if (id < 0) return;
    auto t = Clock::now();
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Ns(t);
    if (target != nullptr) {
      target->Snapshot(&scratch_);
      span.queries_end = scratch_.source_queries;
      span.wal_end = scratch_.wal_bytes;
    }
    overhead_ += Clock::now() - t;
  }

  // A span recorded after the fact (follower polls run on their own thread
  // and keep plain timestamps; they are folded in once it has joined).
  void Add(const char* name, const char* layer, Clock::time_point start,
           Clock::time_point end, uint64_t lsn) {
    if (!enabled_) return;
    spans_.push_back(
        Span{name, layer, Ns(start), Ns(end), -1, -1, lsn, 0, 0, 0, 0});
  }

  double overhead_s() const { return Seconds(overhead_); }

  // Self time per span name: duration minus the part covered by children.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
  }

  void Write(const std::string& path) const {
    if (!enabled_) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Fail("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                   "\"tick\":%lld,\"lsn\":%llu,\"source_queries\":%lld,"
                   "\"wal_bytes\":%lld}\n",
                   i, s.name, s.layer, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.tick),
                   static_cast<unsigned long long>(s.lsn),
                   static_cast<long long>(s.queries_end - s.queries_begin),
                   static_cast<long long>(s.wal_end - s.wal_begin));
    }
    std::fclose(f);
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  Counters scratch_;
  Clock::duration overhead_{0};
};

// --------------------------------------------------------------- follower

// Tails the primary's durability home on its own thread, polling back to
// back with a 1 ms pause, and keeps every poll's end time and applied LSN.
class Follower {
 public:
  struct PollRecord {
    Clock::time_point start;
    Clock::time_point end;
    uint64_t applied_lsn;
    bool ok;
    bool empty;
  };

  Follower(const std::string& primary_dir, const std::string& dir)
      : replica_(std::make_unique<FileLogTransport>(primary_dir),
                 MakeOptions(dir)) {}
  ~Follower() { Stop(); }
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  Status Seed() { return replica_.Start(); }
  void Run() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        int64_t before = replica_.stats().records_applied;
        auto start = Clock::now();
        bool ok = replica_.Poll().ok();
        auto end = Clock::now();
        polls_.push_back({start, end, replica_.applied_lsn(), ok,
                          replica_.stats().records_applied == before});
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  // Valid only after Stop().
  const std::vector<PollRecord>& polls() const { return polls_; }
  Replica& replica() { return replica_; }

 private:
  static ReplicaOptions MakeOptions(const std::string& dir) {
    ReplicaOptions options;
    options.dir = dir;
    return options;
  }

  Replica replica_;
  std::atomic<bool> stop_{false};
  std::vector<PollRecord> polls_;
  std::thread thread_;  // last: joined before the members above go away
};

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.seconds <= 0) {
    Fail("usage: pipeline --workload W --seed N --seconds S --trace 0|1 "
         "--out DIR");
  }
  return args;
}

// Operation accounting for the result line and bench.failed_op_frac.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

const char* LevelName(ReportingLevel level) {
  return level == ReportingLevel::kOidsOnly ? "oids-only" : "with-values";
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

// Per-drain means of the coordinator's drain_timings() (wall clock of the
// serial part and of the slowest shard's eval and sweep: proxies for the
// critical path), and max / mean of the per-shard eval totals.
struct ShardProxies {
  double serial_us = 0;
  double eval_max_us = 0;
  double sweep_max_us = 0;
  double balance = 0;
};

ShardProxies SummarizeShards(
    const std::vector<ShardedWarehouse::DrainTiming>& timings, size_t shards) {
  ShardProxies p;
  if (timings.empty()) return p;
  std::vector<double> eval_total(shards, 0.0);
  for (const auto& t : timings) {
    p.serial_us += static_cast<double>(t.serial_micros);
    int64_t eval_max = 0, sweep_max = 0;
    for (size_t i = 0; i < t.eval_micros.size(); ++i) {
      eval_max = std::max(eval_max, t.eval_micros[i]);
      if (i < eval_total.size()) eval_total[i] += t.eval_micros[i];
    }
    for (int64_t v : t.sweep_micros) sweep_max = std::max(sweep_max, v);
    p.eval_max_us += static_cast<double>(eval_max);
    p.sweep_max_us += static_cast<double>(sweep_max);
  }
  const double n = static_cast<double>(timings.size());
  p.serial_us /= n;
  p.eval_max_us /= n;
  p.sweep_max_us /= n;
  const double mean = Sum(eval_total) / static_cast<double>(shards);
  p.balance = Ratio(*std::max_element(eval_total.begin(), eval_total.end()),
                    mean);
  return p;
}

// What the timed phase measured.
struct StreamResult {
  Clock::time_point t0;
  double wall_s = 0;
  std::vector<double> apply_us, drain_us, read_us, checkpoint_us, late_ms;
  std::vector<double> fresh_ms;    // per update
  std::vector<size_t> drain_of;    // per update: the drain that took it
  std::vector<uint64_t> drain_lsn; // per drain: commit LSN (0 = no WAL ship)
  std::vector<double> drain_rate_ups;  // per drain: events / busy time
  std::vector<double> drain_wal_bpu;   // per drain: WAL bytes / event
  std::vector<double> block_read_rate;  // per kReadBlock reads: reads / s
  Clock::duration apply_time{0}, drain_time{0}, read_time{0},
      checkpoint_time{0}, idle_time{0};
  double rss_mb = 0;
  Counters delta;
  ShardProxies shards;
};

// What the follower saw while tailing the stream.
struct FollowerResult {
  std::vector<double> fresh_ms;
  std::vector<double> poll_us;
  int64_t empty_polls = 0;
  ReplicaStats stats;
};

class Pipeline {
 public:
  explicit Pipeline(Args args)
      : args_(std::move(args)),
        c_(ConfigFor(args_.workload)),
        total_updates_(
            static_cast<size_t>(std::llround(c_.rate * args_.seconds))) {}

  void Run() {
    std::filesystem::remove_all(args_.out);
    std::filesystem::create_directories(args_.out);
    const auto pregen_start = Clock::now();
    stream_ = PregenerateStream(c_, args_.seed, total_updates_);
    pregen_s_ = Seconds(Clock::now() - pregen_start);
    root_ = BuildWorld(c_, args_.seed, &source_);
    views_ = ViewsFor(c_, root_);

    for (int rep = 0; rep < kSetupReps; ++rep) Deploy(LiveHome(), &source_);
    Tracer tracer(args_.trace, Clock::now());
    const StreamResult stream = RunStream(&tracer);
    const FollowerResult tail = FinishFollower(stream, &tracer);
    const auto contents = CheckViews();
    MeasureRecovery(contents);

    tracer.Write(args_.out + "/trace.jsonl");
    if (tracer.enabled()) PrintTraceReport(tracer, stream.wall_s);
    PrintStamp(stream, tail, contents);
    PrintResult(args_.trace ? PerLayer(stream, tail, tracer)
                            : EndToEnd(stream));
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  // Set-up is timed kSetupReps times before the stream (the last deployment
  // serves it) and kLateSetupReps times after it, interleaved with the
  // recoveries, so that a slow spell of the host hits only some samples.
  static constexpr int kSetupReps = 3;
  static constexpr int kLateSetupReps = 4;
  static constexpr int kRecoveryReps = 5;
  static constexpr int kWarmupReads = 3;
  static constexpr size_t kReadBlock = 200;

  std::string LiveHome() const { return args_.out + "/live"; }
  std::string FrozenHome() const { return args_.out + "/frozen"; }

  Target* target() {
    return sharded_ ? static_cast<Target*>(sharded_.get())
                    : static_cast<Target*>(single_.get());
  }

  Clock::time_point Due(Clock::time_point t0, size_t update) const {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(update / c_.rate));
  }

  void Undeploy() {
    follower_.reset();
    single_.reset();
    sharded_.reset();
  }

  // One timed set-up: warehouse construction, ConnectSource,
  // EnableDurability, every DefineView, the first checkpoint and the
  // replica seed, into fresh homes under `home`, over `world`.
  void Deploy(const std::string& home, ObjectStore* world) {
    Undeploy();
    std::filesystem::remove_all(home);
    std::filesystem::create_directories(home);
    const std::string wal_dir = home + "/primary";
    auto start = Clock::now();
    Status status;
    if (c_.shards > 1) {
      sharded_ = std::make_unique<ShardedTarget>(c_, world, root_, wal_dir,
                                                 home + "/pages");
      status = sharded_->Setup(views_, false, &define_us_);
    } else {
      single_ = std::make_unique<SingleTarget>(c_, world, root_, wal_dir);
      status = single_->Setup(views_, false, &define_us_);
    }
    Check(status, "setup");
    if (c_.replica) {
      follower_ = std::make_unique<Follower>(wal_dir, home + "/follower");
      Check(follower_->Seed(), "replica seed");
    }
    setup_s_.push_back(Seconds(Clock::now() - start));
  }

  // The open loop (see the file comment).
  StreamResult RunStream(Tracer* tracer) {
    Target* t = target();
    const Clock::duration tick = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(c_.tick_ms));

    // Reads follow a seeded sequence of views drawn by weight and are
    // served in order, so the mix served is the mix drawn. Each view's
    // expected read time starts from warm-up reads (the first read of a
    // paged view faults its pages in).
    Random read_rng(args_.seed * 31 + 7);
    double weight_total = 0;
    for (const auto& entry : c_.read_mix) weight_total += entry.second;
    auto pick_view = [&]() -> const std::string& {
      double draw = read_rng.NextDouble() * weight_total;
      for (const auto& [name, weight] : c_.read_mix) {
        if (draw < weight) return name;
        draw -= weight;
      }
      return c_.read_mix.back().first;
    };
    std::map<std::string, double> estimate_us;
    for (const auto& entry : c_.read_mix) {
      for (int warm = 0; warm < kWarmupReads; ++warm) {
        auto start = Clock::now();
        t->Read(entry.first);
        estimate_us[entry.first] = Micros(Clock::now() - start);
      }
    }

    StreamResult r;
    r.fresh_ms.assign(total_updates_, 0.0);
    r.drain_of.assign(total_updates_, 0);
    Clock::duration block_read_time{0};
    Clock::duration apply_since_drain{0};
    Counters before;
    t->Snapshot(&before);
    r.t0 = Clock::now();
    if (follower_) follower_->Run();

    // Until `due`, serves the next read of the sequence while it is
    // expected to finish first; otherwise sleeps.
    std::string view = pick_view();
    auto wait_until = [&](Clock::time_point due, int64_t parent,
                          int64_t tick_id) {
      for (auto now = Clock::now(); now < due; now = Clock::now()) {
        const auto budget = std::chrono::microseconds(
            static_cast<int64_t>(estimate_us[view] * 1.5) + 50);
        if (now + budget >= due) {
          int64_t span = tracer->Begin("idle", "bench", parent, tick_id, nullptr);
          std::this_thread::sleep_until(due);
          r.idle_time += Clock::now() - now;
          tracer->End(span, nullptr);
          continue;
        }
        int64_t span = tracer->Begin("read", "warehouse", parent, tick_id, nullptr);
        auto start = Clock::now();
        size_t lines = t->Read(view);
        auto end = Clock::now();
        tracer->End(span, nullptr);
        ops_.Count(lines > 0);
        r.read_us.push_back(Micros(end - start));
        r.read_time += end - start;
        // Read throughput over blocks of consecutive reads of the sequence:
        // a block holds the drawn mix, a gap between drains may not.
        block_read_time += end - start;
        if (r.read_us.size() % kReadBlock == 0) {
          r.block_read_rate.push_back(kReadBlock / Seconds(block_read_time));
          block_read_time = Clock::duration{0};
        }
        // Moving average: one slow read must not bar a view for good.
        estimate_us[view] = 0.9 * estimate_us[view] + 0.1 * Micros(end - start);
        view = pick_view();
      }
    };

    size_t next_update = 0;
    size_t drained_upto = 0;  // updates [0, drained_upto) are drained
    size_t since_checkpoint = 0;
    Clock::time_point next_tick = r.t0 + tick;
    int64_t tick_id = 0;
    int64_t tick_span = tracer->Begin("tick", "bench", -1, tick_id, nullptr);
    while (drained_upto < total_updates_) {
      const Clock::time_point update_due = next_update < total_updates_
                                               ? Due(r.t0, next_update)
                                               : Clock::time_point::max();
      if (update_due <= next_tick) {
        wait_until(update_due, tick_span, tick_id);
        const StreamStep& step = stream_[next_update];
        int64_t span = tracer->Begin("apply", "oem", tick_span, tick_id, nullptr);
        auto start = Clock::now();
        Status status = Status::Ok();
        if (step.fresh) {
          status = source_.PutAtomic(step.update.child, step.fresh_label,
                                     step.fresh_value);
        }
        if (status.ok()) status = source_.Apply(step.update);
        auto end = Clock::now();
        tracer->End(span, nullptr);
        ops_.Count(status.ok());
        if (!status.ok()) Fail("source update failed: " + status.ToString());
        r.apply_us.push_back(Micros(end - start));
        r.apply_time += end - start;
        apply_since_drain += end - start;
        r.late_ms.push_back(Millis(start - update_due));
        ++next_update;
        continue;
      }

      wait_until(next_tick, tick_span, tick_id);
      const int64_t wal_before = t->WalBytes();
      int64_t span = tracer->Begin("drain", "warehouse", tick_span, tick_id, t);
      auto start = Clock::now();
      Status status = t->Drain();
      auto end = Clock::now();
      tracer->End(span, t);
      ops_.Count(status.ok());
      ops_.failed += static_cast<int64_t>(t->StaleViews());
      r.drain_us.push_back(Micros(end - start));
      r.drain_time += end - start;
      r.drain_lsn.push_back(t->CommitLsn());
      const size_t events = next_update - drained_upto;
      if (events > 0) {
        r.drain_wal_bpu.push_back(
            static_cast<double>(t->WalBytes() - wal_before) /
            static_cast<double>(events));
        r.drain_rate_ups.push_back(static_cast<double>(events) /
                                   Seconds(end - start + apply_since_drain));
      }
      apply_since_drain = Clock::duration{0};
      for (size_t i = drained_upto; i < next_update; ++i) {
        r.drain_of[i] = r.drain_us.size() - 1;
        r.fresh_ms[i] = Millis(end - Due(r.t0, i));
      }
      since_checkpoint += events;
      drained_upto = next_update;
      if (since_checkpoint >= c_.checkpoint_every &&
          drained_upto < total_updates_) {
        int64_t cspan =
            tracer->Begin("checkpoint", "storage", tick_span, tick_id, t);
        auto cstart = Clock::now();
        Status cstatus = t->Checkpoint();
        auto cend = Clock::now();
        tracer->End(cspan, t);
        ops_.Count(cstatus.ok());
        r.checkpoint_us.push_back(Micros(cend - cstart));
        r.checkpoint_time += cend - cstart;
        since_checkpoint = 0;
      }
      tracer->End(tick_span, nullptr);
      ++tick_id;
      tick_span = tracer->Begin("tick", "bench", -1, tick_id, nullptr);
      next_tick += tick;
    }
    r.wall_s = Seconds(Clock::now() - r.t0);
    tracer->End(tick_span, nullptr);
    r.rss_mb = RssMiB();
    Counters after;
    t->Snapshot(&after);
    r.delta = after - before;
    if (const auto* timings = t->DrainTimings()) {
      r.shards = SummarizeShards(*timings, c_.shards);
    }
    return r;
  }

  // Stops the follower, times when each drain became visible there, and
  // catches it up to the final commit.
  FollowerResult FinishFollower(const StreamResult& stream, Tracer* tracer) {
    FollowerResult f;
    if (!follower_) return f;
    follower_->Stop();
    f.stats = follower_->replica().stats();
    const auto& polls = follower_->polls();
    for (const auto& p : polls) {
      ops_.Count(p.ok);
      f.poll_us.push_back(Micros(p.end - p.start));
      if (p.empty) ++f.empty_polls;
      tracer->Add("poll", "replication", p.start, p.end, p.applied_lsn);
    }
    // The first poll (in time order) whose applied LSN reaches each drain's
    // commit LSN; both sequences are monotone, so one forward walk.
    std::vector<Clock::time_point> visible(stream.drain_lsn.size(),
                                           Clock::time_point::max());
    size_t p = 0;
    for (size_t k = 0; k < stream.drain_lsn.size(); ++k) {
      while (p < polls.size() && polls[p].applied_lsn < stream.drain_lsn[k]) {
        ++p;
      }
      if (p < polls.size()) visible[k] = polls[p].end;
    }
    for (size_t i = 0; i < total_updates_; ++i) {
      Clock::time_point seen = visible[stream.drain_of[i]];
      if (seen == Clock::time_point::max()) continue;  // after the last poll
      f.fresh_ms.push_back(Millis(seen - Due(stream.t0, i)));
    }
    Check(follower_->replica().CatchUp(256), "follower catch-up");
    return f;
  }

  // The correctness gate: every view against its §4.4 recompute over the
  // final source, and the follower against the primary at the final
  // commit. Returns the verified contents.
  std::map<std::string, ContentLines> CheckViews() {
    std::map<std::string, ContentLines> contents;
    for (const ViewSpec& spec : views_) {
      ContentLines got = target()->Contents(spec.name);
      if (got != RecomputeLines(source_, spec.definition)) {
        Fail("view " + spec.name + " differs from its recompute");
      }
      if (follower_) {
        auto read = follower_->replica().ReadView(spec.name);
        Check(read.status(), "follower ReadView " + spec.name);
        if (read->lines != got) {
          Fail("follower view " + spec.name + " differs from the primary");
        }
      }
      contents[spec.name] = std::move(got);
    }
    if (follower_ && follower_->replica().applied_lsn() !=
                         single_->warehouse().wal()->next_lsn() - 1) {
      Fail("follower stopped short of the final commit");
    }
    return contents;
  }

  // Drops the warehouse, then re-opens copies of its home kRecoveryReps
  // times, checking each against `contents`. The late set-ups run in
  // between, over a fresh copy of the initial world (the stream has grown
  // or shrunk the live one).
  void MeasureRecovery(const std::map<std::string, ContentLines>& contents) {
    namespace fs = std::filesystem;
    Undeploy();
    fs::rename(LiveHome() + "/primary", FrozenHome());
    fs::remove_all(LiveHome());
    ObjectStore initial_world;
    BuildWorld(c_, args_.seed, &initial_world);
    const std::string late_home = args_.out + "/late";
    const std::string home = args_.out + "/recover";
    for (int rep = 0; rep < std::max(kRecoveryReps, kLateSetupReps); ++rep) {
      if (rep < kLateSetupReps) {
        Deploy(late_home, &initial_world);
        Undeploy();
        fs::remove_all(late_home);
      }
      if (rep >= kRecoveryReps) continue;
      fs::remove_all(home);
      fs::create_directories(home);
      const std::string dir = home + "/primary";
      fs::copy(FrozenHome(), dir, fs::copy_options::recursive);
      std::unique_ptr<Target> recovered;
      auto start = Clock::now();
      if (c_.shards > 1) {
        auto t = std::make_unique<ShardedTarget>(c_, &source_, root_, dir,
                                                 home + "/pages");
        Check(t->Setup(views_, true, nullptr), "sharded recovery");
        recovered = std::move(t);
      } else {
        auto t = std::make_unique<SingleTarget>(c_, &source_, root_, dir);
        Check(t->Setup(views_, true, nullptr), "recovery");
        recovered = std::move(t);
      }
      recovery_s_.push_back(Seconds(Clock::now() - start));
      recovery_report_ = recovered->Report();
      for (const auto& [name, lines] : contents) {
        if (recovered->Contents(name) != lines) {
          Fail("recovered view " + name + " differs from before the restart");
        }
      }
    }
    fs::remove_all(home);
    fs::remove_all(FrozenHome());
  }

  std::vector<Metric> EndToEnd(const StreamResult& s) const {
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"fresh_p50_ms", Percentile(s.fresh_ms, 0.50), "ms"},
        {"fresh_p99_ms", Percentile(s.fresh_ms, 0.99), "ms"},
        {"maint_ups", Median(s.drain_rate_ups), "updates/s"},
        {"read_p50_us", Percentile(s.read_us, 0.50), "us"},
        {"read_p99_us", Percentile(s.read_us, 0.99), "us"},
        {"wal_bytes_per_update", InterquartileMean(s.drain_wal_bpu), "bytes"},
        {"rss_mb", s.rss_mb, "MiB"},
    };
  }

  std::vector<Metric> PerLayer(const StreamResult& s, const FollowerResult& f,
                               const Tracer& tracer) const {
    const Counters& d = s.delta;
    const double updates = static_cast<double>(total_updates_);
    const double drains = static_cast<double>(s.drain_us.size());
    auto n = [](int64_t v) { return static_cast<double>(v); };
    // Where the loop thread's wall time went, by the loop's own timers;
    // the remainder is loop bookkeeping plus span recording.
    const double attributed =
        Seconds(s.apply_time + s.drain_time + s.checkpoint_time +
                s.read_time + s.idle_time);
    const double wall = s.wall_s;
    return {
        {"oem.source_apply_us", Ratio(Sum(s.apply_us), updates), "us"},
        {"oem.source_lookups", n(d.src_lookups), "count"},
        {"oem.source_edges_traversed", n(d.src_edges), "count"},
        {"oem.source_index_probes", n(d.src_index_probes), "count"},
        {"oem.delegate_page_faults", n(d.page_faults), "count"},
        {"oem.delegate_page_evictions", n(d.page_evictions), "count"},
        {"oem.delegate_writeback_bytes", n(d.writeback_bytes), "bytes"},
        {"oem.delegate_swizzle_hit_ratio",
         Ratio(n(d.swizzle_hits), n(d.swizzle_hits + d.swizzle_misses)),
         "ratio"},
        {"query.define_us",
         Ratio(Sum(define_us_), static_cast<double>(define_us_.size())), "us"},
        {"core.alg1_updates", n(d.alg1_updates), "count"},
        {"core.alg1_match_ratio", Ratio(n(d.alg1_matched), n(d.alg1_updates)),
         "ratio"},
        {"core.alg1_rechecks", n(d.alg1_rechecks), "count"},
        {"core.alg1_vops", n(d.alg1_vops), "count"},
        {"ivm.propagations_per_update", Ratio(n(d.gdn_propagations), updates),
         "count/update"},
        {"ivm.matches_created", n(d.gdn_created), "count"},
        {"ivm.matches_freed", n(d.gdn_freed), "count"},
        {"ivm.rebuilds", n(d.gdn_rebuilds), "count"},
        {"warehouse.drain_us_p50", Percentile(s.drain_us, 0.50), "us"},
        {"warehouse.drain_us_p99", Percentile(s.drain_us, 0.99), "us"},
        {"warehouse.drain_us_total", Sum(s.drain_us), "us"},
        {"warehouse.drains", drains, "count"},
        {"warehouse.events_per_drain", Ratio(updates, drains), "count"},
        {"warehouse.screen_ratio", Ratio(n(d.screened_out), n(d.events_received)),
         "ratio"},
        {"warehouse.coalesce_ratio", Ratio(n(d.coalesced), n(d.events_received)),
         "ratio"},
        {"warehouse.source_queries_per_update",
         Ratio(n(d.source_queries), updates), "count/update"},
        {"warehouse.objects_shipped", n(d.objects_shipped), "count"},
        {"warehouse.values_shipped", n(d.values_shipped), "count"},
        {"warehouse.cache_hit_ratio",
         Ratio(n(d.cache_hits), n(d.cache_hits + d.cache_misses)), "ratio"},
        {"warehouse.cache_maintenance_queries", n(d.cache_maint_queries),
         "count"},
        {"warehouse.reads_per_s", Median(s.block_read_rate), "reads/s"},
        {"warehouse.shard_serial_us", s.shards.serial_us, "us"},
        {"warehouse.shard_eval_max_us", s.shards.eval_max_us, "us"},
        {"warehouse.shard_sweep_max_us", s.shards.sweep_max_us, "us"},
        {"warehouse.cross_shard_ops", n(d.cross_shard_exports), "count"},
        {"warehouse.shard_balance", s.shards.balance, "ratio"},
        {"storage.wal_bytes", n(d.wal_bytes), "bytes"},
        {"storage.wal_records", n(d.wal_records), "count"},
        {"storage.commits", n(d.commits), "count"},
        {"storage.checkpoint_us",
         Ratio(Sum(s.checkpoint_us), static_cast<double>(s.checkpoint_us.size())),
         "us"},
        {"storage.recovery_s", Median(recovery_s_), "s"},
        {"storage.recover_deltas_redone",
         static_cast<double>(recovery_report_.deltas_redone), "count"},
        {"storage.recover_events_replayed",
         static_cast<double>(recovery_report_.events_replayed), "count"},
        {"replication.poll_us_p50", Percentile(f.poll_us, 0.50), "us"},
        {"replication.poll_us_p99", Percentile(f.poll_us, 0.99), "us"},
        {"replication.polls", static_cast<double>(f.poll_us.size()), "count"},
        {"replication.empty_poll_ratio",
         Ratio(n(f.empty_polls), static_cast<double>(f.poll_us.size())),
         "ratio"},
        {"replication.records_applied", n(f.stats.records_applied), "count"},
        {"replication.bytes_mirrored", n(f.stats.bytes_mirrored), "bytes"},
        {"replication.failed_polls", n(f.stats.failed_polls), "count"},
        {"replication.fresh_p50_ms", Percentile(f.fresh_ms, 0.50), "ms"},
        {"replication.fresh_p99_ms", Percentile(f.fresh_ms, 0.99), "ms"},
        {"bench.apply_frac", Ratio(Seconds(s.apply_time), wall), "ratio"},
        {"bench.drain_frac", Ratio(Seconds(s.drain_time), wall), "ratio"},
        {"bench.checkpoint_frac", Ratio(Seconds(s.checkpoint_time), wall),
         "ratio"},
        {"bench.read_frac", Ratio(Seconds(s.read_time), wall), "ratio"},
        {"bench.idle_frac", Ratio(Seconds(s.idle_time), wall), "ratio"},
        {"bench.unattributed_frac", Ratio(wall - attributed, wall), "ratio"},
        {"bench.trace_overhead_frac", Ratio(tracer.overhead_s(), wall),
         "ratio"},
        {"bench.gen_late_p99_ms", Percentile(s.late_ms, 0.99), "ms"},
        {"bench.failed_op_frac", Ratio(n(ops_.failed), n(ops_.attempted)),
         "ratio"},
        {"bench.wall_s", wall, "s"},
    };
  }

  // Self time per span name on the loop thread (a tick's self time is what
  // its apply/drain/checkpoint/read/idle children leave uncovered);
  // follower polls run on their own thread and are listed apart.
  static void PrintTraceReport(const Tracer& tracer, double wall_s) {
    std::printf("{\"trace_report\": {\"wall_s\": %.9f", wall_s);
    double loop_self = 0;
    for (const auto& [name, self] : tracer.SelfSeconds()) {
      std::printf(", \"%s_self_s\": %.9f", name.c_str(), self);
      if (name != "poll") loop_self += self;
    }
    std::printf(", \"loop_self_sum_s\": %.9f, \"remainder_s\": %.9f, "
                "\"tracing_s\": %.9f}}\n",
                loop_self, wall_s - loop_self, tracer.overhead_s());
  }

  // Host and configuration stamp (the line before the result).
  void PrintStamp(const StreamResult& s, const FollowerResult& f,
                  const std::map<std::string, ContentLines>& contents) const {
    std::string sizes = "{";
    for (const auto& [name, lines] : contents) {
      sizes += (sizes.size() > 1 ? ", " : "") + JsonString(name) + ": " +
               std::to_string(lines.size());
    }
    sizes += "}";
    std::printf(
        "{\"config\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"rate_ups\": %g, \"tick_ms\": %g, "
        "\"updates\": %zu, \"nproc\": %u, \"build_type\": %s, "
        "\"compiler\": %s, \"fsync\": %s, \"reporting_level\": %s, "
        "\"engine\": %s, \"shards\": %u, \"drain_threads\": %zu, "
        "\"threads\": %zu, \"replica\": %s, \"checkpoint_every\": %zu, "
        "\"pregen_s\": %.6f, \"drains\": %zu, \"reads\": %zu, "
        "\"update_samples\": %zu, \"replica_samples\": %zu, "
        "\"setup_samples\": %zu, \"recovery_samples\": %zu, "
        "\"setup_reps_s\": %s, \"recovery_reps_s\": %s, "
        "\"view_sizes\": %s}}\n",
        JsonString(c_.name).c_str(),
        static_cast<unsigned long long>(args_.seed), args_.seconds,
        args_.trace ? 1 : 0, c_.rate, c_.tick_ms, total_updates_,
        std::thread::hardware_concurrency(),
        JsonString(GSV_BENCH_BUILD_TYPE).c_str(),
        JsonString(GSV_BENCH_COMPILER).c_str(),
        JsonString(FsyncPolicyName(c_.fsync)).c_str(),
        JsonString(LevelName(c_.level)).c_str(),
        JsonString(c_.shards > 1 ? ShardedTarget::EngineSpec() : "memory")
            .c_str(),
        c_.shards, c_.drain_threads,
        // The loop thread, plus the drain pool or the follower thread.
        1 + (c_.shards > 1 ? c_.drain_threads : 0) + (c_.replica ? 1 : 0),
        c_.replica ? "true" : "false", c_.checkpoint_every, pregen_s_,
        s.drain_us.size(), s.read_us.size(), s.fresh_ms.size(),
        f.fresh_ms.size(), setup_s_.size(), recovery_s_.size(),
        JsonArray(setup_s_).c_str(), JsonArray(recovery_s_).c_str(),
        sizes.c_str());
  }

  void PrintResult(const std::vector<Metric>& metrics) const {
    std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                static_cast<long long>(ops_.attempted),
                static_cast<long long>(ops_.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s%s: {\"value\": %.10g, \"unit\": %s}", i ? ", " : "",
                  JsonString(metrics[i].name).c_str(), metrics[i].value,
                  JsonString(metrics[i].unit).c_str());
    }
    std::printf("}}\n");
  }

  const Args args_;
  const WorkloadConfig c_;
  const size_t total_updates_;
  std::vector<StreamStep> stream_;
  double pregen_s_ = 0;
  ObjectStore source_;
  Oid root_;
  std::vector<ViewSpec> views_;
  Ops ops_;
  std::vector<double> setup_s_;
  std::vector<double> define_us_;
  std::vector<double> recovery_s_;
  Warehouse::RecoveryReport recovery_report_;
  // The deployment under test (one of single_/sharded_), and its follower.
  std::unique_ptr<SingleTarget> single_;
  std::unique_ptr<ShardedTarget> sharded_;
  std::unique_ptr<Follower> follower_;
};

}  // namespace

int main(int argc, char** argv) {
  Pipeline(ParseArgs(argc, argv)).Run();
  return 0;
}
