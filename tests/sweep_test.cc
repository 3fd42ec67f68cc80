// Scoped verification sweep suite (DESIGN §4b): a deferred drain re-verifies
// only the members its deletes and modifies can have left underivable, and
// the §5.2 corridor cache re-derives depths incrementally on delete. The
// targeted tests build each disclaimed-responsibility case by hand; the
// randomized twin suite demands that after every drain each warehouse view
// (batch drain, inline delivery, K=4 coordinator) is byte-identical to the
// §4.4 recompute oracle; the corridor test checks the incremental depths
// against a SaveTo -> LoadFrom recompute after every event. This binary
// carries the `asan-tsan-paged` ctest label: ci.sh re-runs it under ASan,
// TSan and both paged-engine stages.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/materialized_view.h"
#include "core/recompute.h"
#include "core/view_definition.h"
#include "oem/paged_engine.h"
#include "oem/store.h"
#include "util/random.h"
#include "warehouse/aux_cache.h"
#include "warehouse/monitor.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "warehouse/wrapper.h"
#include "workload/dag_gen.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

using CacheMode = Warehouse::CacheMode;

std::string TempDir(const std::string& tag) {
  std::string path = ::testing::TempDir() + "gsv_sweep_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// The paged ci.sh stages re-point every warehouse delegate store and
// corridor cache here at the paged engine through GSV_STORAGE_ENGINE; the
// oracles stay memory-resident, so each byte-identity check doubles as a
// cross-engine check.
ObjectStore::Options DelegateStoreOptions() {
  ObjectStore::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

Warehouse::Options WarehouseOptions() {
  Warehouse::Options options;
  options.aux_engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

ShardedWarehouse::Options ShardedOptions() {
  ShardedWarehouse::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

const char* LevelName(ReportingLevel level) {
  switch (level) {
    case ReportingLevel::kOidsOnly: return "l1";
    case ReportingLevel::kWithValues: return "l2";
    case ReportingLevel::kWithRootPath: return "l3";
  }
  return "l?";
}

const char* CacheName(CacheMode cache) {
  switch (cache) {
    case CacheMode::kNone: return "none";
    case CacheMode::kLabelsOnly: return "labels";
    case CacheMode::kFull: return "full";
  }
  return "?";
}

// A warehouse over one source with the delegate store it owns; deferred
// unless `deferred` is off (inline delivery).
struct Rig {
  Rig(ObjectStore* source, const Oid& root, ReportingLevel level,
      bool deferred = true)
      : store(DelegateStoreOptions()), warehouse(&store, WarehouseOptions()) {
    status = warehouse.ConnectSource(source, root, level);
    warehouse.set_deferred(deferred);
  }
  ObjectStore store;
  Warehouse warehouse;
  Status status;
};

// The view's content over the source's current state (§4.4 recompute).
std::vector<std::pair<Oid, std::string>> Recomputed(
    const ObjectStore& source, const std::string& definition) {
  auto def = ViewDefinition::Parse(definition);
  EXPECT_TRUE(def.ok());
  ObjectStore store;
  MaterializedView view(&store, def.value());
  EXPECT_TRUE(view.Initialize(source).ok());
  return ViewContentLines(view);
}

// ------------------------------------------------------ targeted batches
//
// The hand-built world: R -a-> A1, A2; A_i -b-> B_i1, B_i2; B_ij -c-> C_ij1,
// C_ij2; C_ijk -v-> V_ijk (atomic). The view selects the b-level objects
// with a c.v witness <= 50, so sel_path = a.b, cond_path = c.v.

constexpr char kViewDef[] =
    "define mview SV as: SELECT swR.a.b X WHERE X.c.v <= 50";

Oid Node(const std::string& name) { return Oid("sw" + name); }

void BuildWorld(ObjectStore* source) {
  std::vector<Oid> as;
  for (int i = 1; i <= 2; ++i) {
    const std::string a = "A" + std::to_string(i);
    std::vector<Oid> bs;
    for (int j = 1; j <= 2; ++j) {
      const std::string b = "B" + std::to_string(i) + std::to_string(j);
      std::vector<Oid> cs;
      for (int k = 1; k <= 2; ++k) {
        const std::string suffix =
            std::to_string(i) + std::to_string(j) + std::to_string(k);
        // Exactly one witness per B: V_ij1 = 10 passes, V_ij2 = 90 fails.
        ASSERT_TRUE(source
                        ->PutAtomic(Node("V" + suffix), "v",
                                    Value::Int(k == 1 ? 10 : 90))
                        .ok());
        ASSERT_TRUE(
            source->PutSet(Node("C" + suffix), "c", {Node("V" + suffix)})
                .ok());
        cs.push_back(Node("C" + suffix));
      }
      ASSERT_TRUE(source->PutSet(Node(b), "b", cs).ok());
      bs.push_back(Node(b));
    }
    ASSERT_TRUE(source->PutSet(Node(a), "a", bs).ok());
    as.push_back(Node(a));
  }
  ASSERT_TRUE(source->PutSet(Node("R"), "root", as).ok());
}

struct TargetedConfig {
  ReportingLevel level;
  CacheMode cache;
  std::string Name() const {
    return std::string(LevelName(level)) + "_" + CacheName(cache);
  }
};

std::vector<TargetedConfig> AllTargetedConfigs() {
  std::vector<TargetedConfig> configs;
  for (ReportingLevel level :
       {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues,
        ReportingLevel::kWithRootPath}) {
    for (CacheMode cache :
         {CacheMode::kNone, CacheMode::kLabelsOnly, CacheMode::kFull}) {
      configs.push_back({level, cache});
    }
  }
  return configs;
}

// Builds the world, defines the view, lets `mutate` change the source while
// the warehouse defers, drains once, and demands the recompute's content.
// Also demands the drain swept scoped (no full run), so the scoped sweep is
// what fixed any stale extra.
// `setup`, when given, changes the world before the view is defined.
void RunTargeted(const std::function<void(ObjectStore*)>& mutate,
                 const std::function<void(ObjectStore*)>& setup = nullptr) {
  for (const TargetedConfig& config : AllTargetedConfigs()) {
    SCOPED_TRACE(config.Name());
    ObjectStore source;
    ASSERT_NO_FATAL_FAILURE(BuildWorld(&source));
    if (setup) ASSERT_NO_FATAL_FAILURE(setup(&source));
    Rig rig(&source, Node("R"), config.level);
    ASSERT_TRUE(rig.status.ok());
    ASSERT_TRUE(rig.warehouse.DefineView(kViewDef, config.cache).ok());

    ASSERT_NO_FATAL_FAILURE(mutate(&source));
    Status drained = rig.warehouse.ProcessPendingBatch();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    EXPECT_EQ(ViewContentLines(*rig.warehouse.view("SV")),
              Recomputed(source, kViewDef));
    EXPECT_EQ(rig.warehouse.costs().sweep_full_runs.load(), 0);
  }
}

TEST(ScopedSweepTest, NestedDetachLowerDeleteFirst) {
  RunTargeted([](ObjectStore* source) {
    // The lower delete cuts a witness edge (condition part); the upper one
    // then detaches the whole A1 subtree (select part).
    ASSERT_TRUE(source->Delete(Node("B11"), Node("C111")).ok());
    ASSERT_TRUE(source->Delete(Node("A1"), Node("B12")).ok());
    ASSERT_TRUE(source->Delete(Node("R"), Node("A1")).ok());
  });
}

TEST(ScopedSweepTest, NestedDetachUpperDeleteFirst) {
  RunTargeted([](ObjectStore* source) {
    ASSERT_TRUE(source->Delete(Node("R"), Node("A1")).ok());
    ASSERT_TRUE(source->Delete(Node("A1"), Node("B12")).ok());
    ASSERT_TRUE(source->Delete(Node("B11"), Node("C111")).ok());
    ASSERT_TRUE(source->Delete(Node("B21"), Node("C211")).ok());
  });
}

TEST(ScopedSweepTest, WitnessModifyUnderACutConditionEdge) {
  RunTargeted([](ObjectStore* source) {
    // The witness dies, then the edge above it is cut: at drain time the
    // modify no longer lies on the corridor, and the delete's detached
    // subtree no longer holds a witness — both events disclaim B11.
    ASSERT_TRUE(source->Modify(Node("V111"), Value::Int(95)).ok());
    ASSERT_TRUE(source->Delete(Node("B11"), Node("C111")).ok());
  });
}

TEST(ScopedSweepTest, WitnessModifyUnderACutSelectEdge) {
  RunTargeted([](ObjectStore* source) {
    ASSERT_TRUE(source->Modify(Node("V221"), Value::Int(70)).ok());
    ASSERT_TRUE(source->Delete(Node("A2"), Node("B22")).ok());
    // B22 comes back under A1 (select-part depth kept), witness now dead.
    ASSERT_TRUE(source->Insert(Node("A1"), Node("B22")).ok());
  });
}

TEST(ScopedSweepTest, DeleteThenReattachElsewhere) {
  RunTargeted([](ObjectStore* source) {
    // A member moves to another parent at the same depth: it stays.
    ASSERT_TRUE(source->Delete(Node("A1"), Node("B11")).ok());
    ASSERT_TRUE(source->Insert(Node("A2"), Node("B11")).ok());
    // A witness moves from B12 to B21, which already had one: B12 leaves.
    ASSERT_TRUE(source->Delete(Node("B12"), Node("C121")).ok());
    ASSERT_TRUE(source->Insert(Node("B21"), Node("C121")).ok());
    // A member re-attaches one level too deep: it leaves the view.
    ASSERT_TRUE(source->Delete(Node("A2"), Node("B22")).ok());
    ASSERT_TRUE(source->Insert(Node("C211"), Node("B22")).ok());
  });
}

TEST(ScopedSweepTest, DetachedSubtreeChangesBeforeItReattaches) {
  RunTargeted([](ObjectStore* source) {
    // While B11 is off the corridor its witness is cut and a new failing
    // leaf arrives; re-attaching it must not resurrect the old witness.
    ASSERT_TRUE(source->Delete(Node("A1"), Node("B11")).ok());
    ASSERT_TRUE(source->Delete(Node("B11"), Node("C111")).ok());
    ASSERT_TRUE(source->Modify(Node("V112"), Value::Int(20)).ok());
    ASSERT_TRUE(source->Insert(Node("A1"), Node("B11")).ok());
    ASSERT_TRUE(source->Modify(Node("V112"), Value::Int(80)).ok());
  });
}

TEST(ScopedSweepTest, CoalescedModifyAfterASnapshotInsert) {
  RunTargeted(
      [](ObjectStore* source) {
        // A fresh leaf passes the condition only while its insert event is
        // snapshotted; coalescing merges its modifies into one 90 -> 95
        // event that neither passes before nor after. The insert's snapshot
        // still adds B22: the merged modify must name it a suspect.
        ASSERT_TRUE(source->PutAtomic(Node("X"), "v", Value::Int(90)).ok());
        ASSERT_TRUE(source->Modify(Node("X"), Value::Int(20)).ok());
        ASSERT_TRUE(source->Insert(Node("C222"), Node("X")).ok());
        ASSERT_TRUE(source->Modify(Node("X"), Value::Int(95)).ok());
      },
      [](ObjectStore* source) {
        // B22 starts outside the view: both its leaves fail.
        ASSERT_TRUE(source->Modify(Node("V221"), Value::Int(90)).ok());
      });
}

// After a crash with an uncommitted tail on a kFull-cached view, recovery
// rebuilds the corridor from the live source and replays the tail through
// a drain; that first drain must sweep fully — the restored view is exact
// only for the last commit — and the drains after it sweep scoped again.
TEST(ScopedSweepTest, FirstDrainAfterFullCacheTailReplaySweepsFully) {
  const std::string dir = TempDir("full_tail");
  ObjectStore source;
  ASSERT_NO_FATAL_FAILURE(BuildWorld(&source));
  {
    Rig rig(&source, Node("R"), ReportingLevel::kWithValues);
    Warehouse::DurabilityOptions options;
    options.dir = dir;
    ASSERT_TRUE(rig.warehouse.EnableDurability(options).ok());
    ASSERT_TRUE(rig.warehouse.DefineView(kViewDef, CacheMode::kFull).ok());
    ASSERT_TRUE(source.Modify(Node("V121"), Value::Int(55)).ok());
    ASSERT_TRUE(rig.warehouse.ProcessPendingBatch().ok());
    // Logged but never drained: the tail the recovery must replay. These
    // are exactly the disclaim shapes a scoped sweep alone would miss if
    // the view were not exact before the replay.
    ASSERT_TRUE(source.Modify(Node("V111"), Value::Int(95)).ok());
    ASSERT_TRUE(source.Delete(Node("B11"), Node("C111")).ok());
    ASSERT_TRUE(source.Delete(Node("R"), Node("A2")).ok());
    EXPECT_EQ(rig.warehouse.pending_events(), 3u);
  }
  Rig recovered(&source, Node("R"), ReportingLevel::kWithValues);
  Warehouse::DurabilityOptions options;
  options.dir = dir;
  ASSERT_TRUE(recovered.warehouse.EnableDurability(options).ok());
  EXPECT_EQ(recovered.warehouse.recovery_report().events_replayed, 3u);
  EXPECT_EQ(recovered.warehouse.costs().sweep_full_runs.load(), 1);
  EXPECT_EQ(ViewContentLines(*recovered.warehouse.view("SV")),
            Recomputed(source, kViewDef));

  ASSERT_TRUE(source.Insert(Node("R"), Node("A2")).ok());
  ASSERT_TRUE(source.Modify(Node("V221"), Value::Int(75)).ok());
  ASSERT_TRUE(recovered.warehouse.ProcessPendingBatch().ok());
  EXPECT_EQ(recovered.warehouse.costs().sweep_full_runs.load(), 1);
  EXPECT_EQ(ViewContentLines(*recovered.warehouse.view("SV")),
            Recomputed(source, kViewDef));
}

// ------------------------------------------------------- observability

// A tree of 9331 objects whose selected level has 1296 candidates, nearly
// all members. One modify kills a witness (10 -> 95 against "<= 60"): the
// drain must re-verify its ancestors along cond_path (one member), not the
// view.
class SweepCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TreeGenOptions tree_options;
    tree_options.levels = 5;
    tree_options.fanout = 6;
    tree_options.seed = 7;
    tree_options.oid_prefix = "swc_";
    auto tree = GenerateTree(&source_, tree_options);
    ASSERT_TRUE(tree.ok());
    root_ = tree->root;
    leaf_ = tree->leaves[17];
    definition_ = TreeViewDefinition("BIG", root_, 4, 5, 60);
  }

  ObjectStore source_;
  Oid root_;
  Oid leaf_;
  std::string definition_;
};

TEST_F(SweepCostTest, SingleModifyDrainReverifiesAncestorsNotTheView) {
  for (CacheMode cache : {CacheMode::kNone, CacheMode::kFull}) {
    SCOPED_TRACE(CacheName(cache));
    ASSERT_TRUE(source_.Modify(leaf_, Value::Int(10)).ok());
    Rig rig(&source_, root_, ReportingLevel::kWithValues);
    ASSERT_TRUE(rig.warehouse.DefineView(definition_, cache).ok());
    const size_t members = rig.warehouse.view("BIG")->size();
    ASSERT_GT(members, 1000u);

    ASSERT_TRUE(source_.Modify(leaf_, Value::Int(95)).ok());
    Status drained = rig.warehouse.ProcessPendingBatch();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    const WarehouseCosts& costs = rig.warehouse.costs();
    // ancestor(leaf, cond_path = "age") is the leaf's one parent.
    EXPECT_EQ(costs.sweep_candidates.load(), 1);
    EXPECT_EQ(costs.sweep_full_runs.load(), 0);
    EXPECT_EQ(ViewContentLines(*rig.warehouse.view("BIG")),
              Recomputed(source_, definition_));
    const std::string text = rig.warehouse.ExplainView("BIG").ToString();
    EXPECT_NE(text.find("verification sweeps: 1 members re-verified, "
                        "0 full runs"),
              std::string::npos)
        << text;
    EXPECT_NE(costs.ToString().find("sweep_candidates="), std::string::npos)
        << costs.ToString();
  }
}

TEST_F(SweepCostTest, CoordinatorSweepsTheUnionOfShardSuspects) {
  ASSERT_TRUE(source_.Modify(leaf_, Value::Int(10)).ok());
  ShardedWarehouse sharded(4, ShardedOptions());
  ASSERT_TRUE(sharded.init_status().ok());
  ASSERT_TRUE(
      sharded.ConnectSource(&source_, root_, ReportingLevel::kWithValues)
          .ok());
  ASSERT_TRUE(sharded.DefineView(definition_).ok());
  sharded.set_deferred(true);
  ASSERT_GT(sharded.ViewMembers("BIG").size(), 1000u);

  ASSERT_TRUE(source_.Modify(leaf_, Value::Int(95)).ok());
  ASSERT_TRUE(sharded.ProcessPendingBatch(4).ok());
  const WarehouseCosts costs = sharded.MergedCosts();
  // Every shard checks the union against its own slice; the one suspect is
  // owned by exactly one of them.
  EXPECT_EQ(costs.sweep_candidates.load(), 1);
  EXPECT_EQ(costs.sweep_full_runs.load(), 0);
  auto expected = Recomputed(source_, definition_);
  EXPECT_EQ(sharded.ViewContents("BIG"), expected);
  EXPECT_NE(sharded.ExplainView("BIG").ToString().find("verification sweeps"),
            std::string::npos);
}

TEST_F(SweepCostTest, FirstDrainAfterRecoveryCountsOneFullRun) {
  const std::string dir = TempDir("recovery_full_run");
  UpdateGenOptions gen_options;
  gen_options.seed = 5;
  gen_options.leaf_labels = {"age"};
  gen_options.oid_prefix = "swc_u";
  UpdateGenerator gen(&source_, root_, gen_options);
  Warehouse::DurabilityOptions options;
  options.dir = dir;
  {
    Rig rig(&source_, root_, ReportingLevel::kWithValues);
    ASSERT_TRUE(rig.warehouse.EnableDurability(options).ok());
    ASSERT_TRUE(rig.warehouse.DefineView(definition_).ok());
    ASSERT_TRUE(gen.Run(20).ok());
    ASSERT_TRUE(rig.warehouse.ProcessPendingBatch().ok());
    EXPECT_EQ(rig.warehouse.costs().sweep_full_runs.load(), 0);
  }
  Rig recovered(&source_, root_, ReportingLevel::kWithValues);
  ASSERT_TRUE(recovered.warehouse.EnableDurability(options).ok());
  EXPECT_EQ(recovered.warehouse.costs().sweep_full_runs.load(), 0);

  ASSERT_TRUE(gen.Run(20).ok());
  ASSERT_TRUE(recovered.warehouse.ProcessPendingBatch().ok());
  EXPECT_EQ(recovered.warehouse.costs().sweep_full_runs.load(), 1);
  const int64_t after_full = recovered.warehouse.costs().sweep_candidates;
  EXPECT_GT(after_full, 1000);

  ASSERT_TRUE(gen.Run(20).ok());
  ASSERT_TRUE(recovered.warehouse.ProcessPendingBatch().ok());
  EXPECT_EQ(recovered.warehouse.costs().sweep_full_runs.load(), 1);
  EXPECT_LT(recovered.warehouse.costs().sweep_candidates - after_full, 1000);
  EXPECT_EQ(ViewContentLines(*recovered.warehouse.view("BIG")),
            Recomputed(source_, definition_));
}

// -------------------------------------------- randomized twin property

struct TwinParam {
  bool dag;
  ReportingLevel level;
  CacheMode cache;
  uint32_t shards;  // 1: plain warehouses; 4: the sharded coordinator
  uint64_t seed;
};

std::string TwinParamName(const ::testing::TestParamInfo<TwinParam>& info) {
  const TwinParam& p = info.param;
  return std::string(p.dag ? "dag_" : "tree_") + LevelName(p.level) + "_" +
         CacheName(p.cache) + "_k" + std::to_string(p.shards);
}

std::vector<TwinParam> AllTwinParams() {
  std::vector<TwinParam> params;
  uint64_t seed = 1;
  for (bool dag : {false, true}) {
    for (ReportingLevel level :
         {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues,
          ReportingLevel::kWithRootPath}) {
      for (CacheMode cache :
           {CacheMode::kNone, CacheMode::kLabelsOnly, CacheMode::kFull}) {
        params.push_back({dag, level, cache, 1, seed++});
      }
      // Sharded warehouses are cache-less.
      params.push_back({dag, level, CacheMode::kNone, 4, seed++});
    }
  }
  return params;
}

class ScopedSweepTwinTest : public ::testing::TestWithParam<TwinParam> {};

// One source feeds, in lockstep: a batch-drained warehouse (K=1, four
// worker threads on odd seeds) and an inline one (every event drained on
// its own right after its update, no sweep), or the K=4 coordinator; plus
// one §4.4 recompute oracle per view. Batch sizes are drawn from 1..64.
// After every drain every view is byte-identical to its oracle, and no
// drain ever needed a full sweep.
TEST_P(ScopedSweepTwinTest, EveryDrainMatchesRecompute) {
  const TwinParam& p = GetParam();
  const std::string prefix = "swt" + std::to_string(p.seed) + "_";
  ObjectStore source;
  Oid root;
  std::vector<std::string> definitions;
  UpdateGenOptions gen_options;
  gen_options.seed = p.seed * 13 + 1;
  gen_options.oid_prefix = prefix + "u";
  if (p.dag) {
    DagGenOptions dag_options;
    dag_options.levels = 4;
    dag_options.width = 10;
    dag_options.max_parents = 3;
    dag_options.seed = p.seed;
    dag_options.oid_prefix = prefix;
    auto dag = GenerateDag(&source, dag_options);
    ASSERT_TRUE(dag.ok());
    root = dag->root;
    for (size_t sel = 1; sel <= 3; ++sel) {
      definitions.push_back(DagViewDefinition("W" + std::to_string(sel), root,
                                              sel, 4, 30 + 10 * sel));
    }
    gen_options.mode = UpdateMode::kDagPreserving;
  } else {
    TreeGenOptions tree_options;
    tree_options.levels = 4;
    tree_options.fanout = 4;
    tree_options.seed = p.seed;
    tree_options.oid_prefix = prefix;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    root = tree->root;
    for (size_t sel = 1; sel <= 3; ++sel) {
      definitions.push_back(TreeViewDefinition("W" + std::to_string(sel),
                                               root, sel, 4, 30 + 10 * sel));
    }
  }

  std::vector<std::string> names = {"W1", "W2", "W3"};
  std::unique_ptr<Rig> batch;
  std::unique_ptr<Rig> inline_rig;
  std::unique_ptr<ShardedWarehouse> sharded;
  if (p.shards == 1) {
    batch = std::make_unique<Rig>(&source, root, p.level);
    inline_rig = std::make_unique<Rig>(&source, root, p.level,
                                       /*deferred=*/false);
    ASSERT_TRUE(batch->status.ok());
    ASSERT_TRUE(inline_rig->status.ok());
    for (size_t v = 0; v < definitions.size(); ++v) {
      // The parameter's cache mode on the first and last view; the middle
      // one stays cache-less, so cached and uncached views share drains.
      CacheMode cache = v == 1 ? CacheMode::kNone : p.cache;
      ASSERT_TRUE(batch->warehouse.DefineView(definitions[v], cache).ok());
      ASSERT_TRUE(
          inline_rig->warehouse.DefineView(definitions[v], cache).ok());
    }
  } else {
    sharded = std::make_unique<ShardedWarehouse>(p.shards, ShardedOptions());
    ASSERT_TRUE(sharded->init_status().ok());
    ASSERT_TRUE(sharded->ConnectSource(&source, root, p.level).ok());
    for (const std::string& definition : definitions) {
      ASSERT_TRUE(sharded->DefineView(definition).ok());
    }
    sharded->set_deferred(true);
  }

  std::vector<std::unique_ptr<ObjectStore>> oracle_stores;
  std::vector<std::unique_ptr<MaterializedView>> oracle_views;
  std::vector<std::unique_ptr<RecomputeMaintainer>> oracles;
  for (const std::string& definition : definitions) {
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok());
    oracle_stores.push_back(std::make_unique<ObjectStore>());
    oracle_views.push_back(std::make_unique<MaterializedView>(
        oracle_stores.back().get(), def.value()));
    ASSERT_TRUE(oracle_views.back()->Initialize(source).ok());
    oracles.push_back(std::make_unique<RecomputeMaintainer>(
        oracle_views.back().get(), &source));
  }

  Warehouse::BatchOptions batch_options;
  batch_options.threads = p.seed % 2 == 1 ? 4 : 1;
  UpdateGenerator gen(&source, root, gen_options);
  Random sizes(p.seed * 7 + 3);
  constexpr size_t kDrains = 24;
  for (size_t drain = 0; drain < kDrains; ++drain) {
    const size_t batch_size = 1 + sizes.Uniform(64);
    SCOPED_TRACE("drain " + std::to_string(drain) + " of " +
                 std::to_string(batch_size) + " updates");
    ASSERT_TRUE(gen.Run(batch_size).ok());
    if (p.shards == 1) {
      ASSERT_TRUE(batch->warehouse.ProcessPendingBatch(batch_options).ok())
          << batch->warehouse.last_status().ToString();
      ASSERT_TRUE(inline_rig->warehouse.last_status().ok())
          << inline_rig->warehouse.last_status().ToString();
    } else {
      ASSERT_TRUE(sharded->ProcessPendingBatch(4).ok());
    }
    for (size_t v = 0; v < names.size(); ++v) {
      ASSERT_TRUE(oracles[v]->Recompute().ok());
      const auto expected = ViewContentLines(*oracle_views[v]);
      if (p.shards == 1) {
        ASSERT_EQ(ViewContentLines(*batch->warehouse.view(names[v])),
                  expected)
            << names[v] << " (batch drain)";
        ASSERT_EQ(ViewContentLines(*inline_rig->warehouse.view(names[v])),
                  expected)
            << names[v] << " (inline delivery)";
      } else {
        ASSERT_EQ(sharded->ViewContents(names[v]), expected) << names[v];
      }
    }
  }
  if (p.shards == 1) {
    EXPECT_EQ(batch->warehouse.costs().sweep_full_runs.load(), 0);
    EXPECT_GT(batch->warehouse.costs().sweep_candidates.load(), 0);
  } else {
    EXPECT_EQ(sharded->MergedCosts().sweep_full_runs.load(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, ScopedSweepTwinTest,
                         ::testing::ValuesIn(AllTwinParams()), TwinParamName);

// --------------------------------------------- incremental corridor depths

// Every object's corridor paths in `cache` equal those of `other`: both
// caches agree on every corridor prefix probe.
void ExpectSameDepths(const ObjectStore& source, const Path& corridor,
                      const AuxiliaryCache& cache, const AuxiliaryCache& other,
                      const std::string& what) {
  ASSERT_EQ(cache.size(), other.size()) << what;
  source.ForEach([&](const Object& object) {
    for (size_t k = 0; k <= corridor.size(); ++k) {
      const Path prefix = corridor.Prefix(k);
      EXPECT_EQ(cache.VerifyPath(object.oid(), prefix),
                other.VerifyPath(object.oid(), prefix))
          << what << ": " << object.oid().str() << " at depth " << k;
    }
  });
}

// A layered DAG of "a" sets over one repeated-label corridor (a.a.a.v):
// edges only run forward, skip levels and share children, so objects sit
// at several corridor depths at once and diamonds give them several parents.
// Random inserts, deletes and modifies run against it; after each event the
// cache's incremental depths must equal (1) a SaveTo -> LoadFrom recompute
// of the same cache and (2) a cache freshly initialized from the source.
TEST(IncrementalCorridorTest, DepthsMatchRecomputeAfterEveryEvent) {
  constexpr int kNodes = 16;
  const Path corridor(std::vector<std::string>{"a", "a", "a", "v"});
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (ReportingLevel level :
         {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + LevelName(level));
      const std::string prefix = "swd" + std::to_string(seed) + "_";
      auto node = [&](int i) { return Oid(prefix + "N" + std::to_string(i)); };
      auto leaf = [&](int i) { return Oid(prefix + "L" + std::to_string(i)); };
      const Oid root(prefix + "R");
      Random rng(seed);
      ObjectStore source;
      for (int i = 0; i < kNodes; ++i) {
        ASSERT_TRUE(source
                        .PutAtomic(leaf(i), "v",
                                   Value::Int(rng.UniformInt(0, 99)))
                        .ok());
        std::vector<Oid> children{leaf(i)};
        for (int j = i + 1; j < kNodes; ++j) {
          if (rng.Uniform(4) == 0) children.push_back(node(j));
        }
        ASSERT_TRUE(source.PutSet(node(i), "a", children).ok());
      }
      ASSERT_TRUE(
          source.PutSet(root, "root", {node(0), node(1), node(2)}).ok());

      WarehouseCosts costs;
      SourceWrapper wrapper(&source, &costs);
      AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, root, corridor,
                           MakeEngineFactoryFromEnv());
      ASSERT_TRUE(cache.Initialize(&wrapper).ok());
      Status event_status;
      SourceMonitor monitor(level, root, [&](const UpdateEvent& event) {
        Status status = cache.OnEvent(event, &wrapper);
        if (event_status.ok()) event_status = status;
      });
      source.AddListener(&monitor);

      for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const uint64_t kind = rng.Uniform(3);
        const int from = static_cast<int>(rng.Uniform(kNodes));
        if (kind == 0) {
          // Forward edges only: the graph stays acyclic.
          const Oid parent = from == 0 ? root : node(from - 1);
          const int to = from + static_cast<int>(rng.Uniform(kNodes - from));
          if (!source.Get(parent)->children().Contains(node(to))) {
            ASSERT_TRUE(source.Insert(parent, node(to)).ok());
          }
        } else if (kind == 1) {
          const Oid parent = from == 0 ? root : node(from);
          const auto& children = source.Get(parent)->children().elements();
          if (!children.empty()) {
            const Oid child = children[rng.Uniform(children.size())];
            ASSERT_TRUE(source.Delete(parent, child).ok());
          }
        } else {
          ASSERT_TRUE(
              source.Modify(leaf(from), Value::Int(rng.UniformInt(0, 99)))
                  .ok());
        }
        ASSERT_TRUE(event_status.ok()) << event_status.ToString();

        std::stringstream image;
        ASSERT_TRUE(cache.SaveTo(image).ok());
        AuxiliaryCache reloaded(AuxiliaryCache::Mode::kFull, root, corridor);
        ASSERT_TRUE(reloaded.LoadFrom(image).ok());
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameDepths(source, corridor, cache, reloaded, "reloaded"));

        AuxiliaryCache fresh(AuxiliaryCache::Mode::kFull, root, corridor);
        ASSERT_TRUE(fresh.Initialize(&wrapper).ok());
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameDepths(source, corridor, cache, fresh, "fresh"));

        // Pruning drops exactly the detached leftovers.
        if (step % 5 == 4) {
          cache.Prune();
          EXPECT_EQ(cache.store().size(), fresh.store().size());
        }
      }
      source.RemoveListener(&monitor);
    }
  }
}

}  // namespace
}  // namespace gsv
