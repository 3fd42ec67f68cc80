#include <gtest/gtest.h>

#include "core/virtual_view.h"
#include "core/view_definition.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "path/navigate.h"
#include "workload/dag_gen.h"
#include "workload/relational_gen.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"
#include "workload/web_gen.h"

namespace gsv {
namespace {

TEST(TreeGenTest, ShapeAndDeterminism) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 3;
  options.fanout = 3;
  options.seed = 5;
  auto tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());
  // 1 root + 3 + 9 internals + 27 leaves.
  EXPECT_EQ(tree->object_count, 40u);
  EXPECT_EQ(tree->leaves.size(), 27u);
  EXPECT_EQ(tree->internal.size(), 12u);
  EXPECT_EQ(store.size(), 40u);

  // Every leaf is an atomic "age"; every internal node is a set.
  for (const Oid& leaf : tree->leaves) {
    const Object* object = store.Get(leaf);
    ASSERT_NE(object, nullptr);
    EXPECT_TRUE(object->IsAtomic());
    EXPECT_EQ(object->label(), "age");
    EXPECT_GE(object->value().AsInt(), 0);
    EXPECT_LT(object->value().AsInt(), options.max_value);
  }

  // Same seed reproduces the same values.
  ObjectStore store2;
  auto tree2 = GenerateTree(&store2, options);
  ASSERT_TRUE(tree2.ok());
  for (const Oid& leaf : tree->leaves) {
    EXPECT_EQ(store.Get(leaf)->value(), store2.Get(leaf)->value());
  }
}

TEST(TreeGenTest, ViewDefinitionSelectsExpectedLevel) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 3;
  options.fanout = 2;
  options.label_variety = 1;
  auto tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());

  // All labels are n<d>_0, so the view selects every depth-2 node whose
  // leaf children pass the bound.
  auto def = ViewDefinition::Parse(
      TreeViewDefinition("TV", tree->root, /*sel_levels=*/2, /*levels=*/3,
                         /*bound=*/options.max_value));
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ASSERT_TRUE(def->IsSimple());
  auto members = EvaluateView(store, *def);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 4u) << "all depth-2 nodes (bound is maximal)";

  auto empty_def = ViewDefinition::Parse(
      TreeViewDefinition("TV2", tree->root, 2, 3, /*bound=*/-1));
  auto none = EvaluateView(store, *empty_def);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(TreeGenTest, RejectsDegenerateOptions) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 0;
  EXPECT_FALSE(GenerateTree(&store, options).ok());
}

TEST(DagGenTest, NodesHaveMultipleParents) {
  ObjectStore store;
  DagGenOptions options;
  options.levels = 3;
  options.width = 10;
  options.min_parents = 2;
  options.max_parents = 3;
  auto dag = GenerateDag(&store, options);
  ASSERT_TRUE(dag.ok());
  ASSERT_EQ(dag->layers.size(), 3u);

  bool some_multi_parent = false;
  for (const Oid& node : dag->layers[1]) {
    if (store.Parents(node).size() > 1) some_multi_parent = true;
  }
  EXPECT_TRUE(some_multi_parent);
  EXPECT_GE(dag->edge_count, 10u * 3u * 1u);

  // Multiple derivation paths exist for some node.
  bool some_multi_path = false;
  for (const Oid& leaf : dag->layers[2]) {
    if (PathsFromTo(store, dag->root, leaf, /*max_paths=*/8,
                    /*max_depth=*/256)
            .size() > 1) {
      some_multi_path = true;
      break;
    }
  }
  EXPECT_TRUE(some_multi_path);
}

TEST(RelationalGenTest, Example7Shape) {
  ObjectStore store;
  RelationalGenOptions options;
  options.relations = 3;
  options.tuples_per_relation = 10;
  options.extra_fields = 2;
  auto rel = GenerateRelationalGsdb(&store, options);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->relation_oids.size(), 3u);
  EXPECT_EQ(rel->tuple_oids.size(), 30u);
  // 1 root + 3 relations + 30 tuples * (1 + 1 age + 2 fields).
  EXPECT_EQ(store.size(), 1u + 3u + 30u * 4u);

  // r0 tuples reachable via the Example 7 path.
  OidSet tuples = EvalPath(store, rel->root, *Path::Parse("r0.tuple"));
  EXPECT_EQ(tuples.size(), 10u);

  auto def = ViewDefinition::Parse(
      RelationalViewDefinition("SEL", rel->root, /*bound=*/-1));
  ASSERT_TRUE(def.ok());
  auto members = EvaluateView(store, *def);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 10u) << "bound -1 selects every r0 tuple";
}

TEST(WebGenTest, FlowerPagesAndCycles) {
  ObjectStore store;
  WebGenOptions options;
  options.pages = 40;
  options.flower_fraction = 0.3;
  options.seed = 11;
  auto web = GenerateWeb(&store, options);
  ASSERT_TRUE(web.ok());
  EXPECT_EQ(web->pages.size(), 40u);
  EXPECT_GT(web->flower_pages.size(), 0u);
  EXPECT_TRUE(store.DatabaseOid("WEB").valid());

  // The flower view definition finds exactly the flower pages.
  auto def =
      ViewDefinition::Parse(FlowerViewDefinition("FLOWERS", web->root));
  ASSERT_TRUE(def.ok());
  auto members = EvaluateView(store, *def);
  ASSERT_TRUE(members.ok());
  OidSet expected;
  for (const Oid& page : web->flower_pages) expected.Insert(page);
  EXPECT_EQ(*members, expected);

  // Link graph may contain cycles; expression evaluation must terminate.
  OidSet reachable =
      EvalExpression(store, web->pages[0], *PathExpression::Parse("*"));
  EXPECT_GT(reachable.size(), 1u);
}

TEST(UpdateGenTest, TreePreservingStreamKeepsTreeShape) {
  ObjectStore store;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  auto tree = GenerateTree(&store, tree_options);
  ASSERT_TRUE(tree.ok());

  UpdateGenOptions options;
  options.mode = UpdateMode::kTreePreserving;
  options.seed = 3;
  UpdateGenerator generator(&store, tree->root, options);
  auto updates = generator.Run(200);
  ASSERT_TRUE(updates.ok()) << updates.status().ToString();
  EXPECT_EQ(updates->size(), 200u);

  // Every reachable node still has at most one reachable parent (tree).
  OidSet reachable = EvalExpression(store, tree->root,
                                    *PathExpression::Parse("*"));
  for (const Oid& oid : reachable) {
    if (oid == tree->root) continue;
    size_t reachable_parents = 0;
    for (const Oid& parent : store.Parents(oid)) {
      if (reachable.Contains(parent)) ++reachable_parents;
    }
    EXPECT_LE(reachable_parents, 1u) << oid.str();
  }
}

TEST(UpdateGenTest, DeterministicStreams) {
  auto run = [](uint64_t seed) {
    ObjectStore store;
    TreeGenOptions tree_options;
    auto tree = GenerateTree(&store, tree_options);
    UpdateGenOptions options;
    options.seed = seed;
    UpdateGenerator generator(&store, tree->root, options);
    auto updates = generator.Run(50);
    std::string log;
    for (const Update& update : *updates) log += update.ToString() + "\n";
    return log;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// The returned updates must describe exactly what the generator applied:
// replayed on a twin world built from the same seed, every update applies
// and the two stores end byte-identical. (Deletes and re-attaches rescan
// the generator's object lists, so the update must not alias them.)
TEST(UpdateGenTest, ReturnedUpdatesReplayOnATwinWorld) {
  for (UpdateMode mode :
       {UpdateMode::kTreePreserving, UpdateMode::kDagPreserving}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE((mode == UpdateMode::kDagPreserving ? "dag seed " : "tree seed ") +
                   std::to_string(seed));
      ObjectStore world;
      ObjectStore twin;
      Oid root;
      const std::string prefix = "rp" + std::to_string(seed) + "_";
      if (mode == UpdateMode::kDagPreserving) {
        DagGenOptions dag_options;
        dag_options.levels = 3;
        dag_options.width = 8;
        dag_options.seed = seed;
        dag_options.oid_prefix = prefix;
        auto dag = GenerateDag(&world, dag_options);
        ASSERT_TRUE(dag.ok());
        ASSERT_TRUE(GenerateDag(&twin, dag_options).ok());
        root = dag->root;
      } else {
        TreeGenOptions tree_options;
        tree_options.levels = 3;
        tree_options.fanout = 3;
        tree_options.seed = seed;
        tree_options.oid_prefix = prefix;
        auto tree = GenerateTree(&world, tree_options);
        ASSERT_TRUE(tree.ok());
        ASSERT_TRUE(GenerateTree(&twin, tree_options).ok());
        root = tree->root;
      }
      UpdateGenOptions options;
      options.mode = mode;
      options.seed = seed;
      options.p_insert = 0.4;
      options.p_delete = 0.35;
      options.p_modify = 0.25;
      options.oid_prefix = prefix + "u";
      UpdateGenerator generator(&world, root, options);
      for (size_t step = 0; step < 300; ++step) {
        auto update = generator.Step();
        ASSERT_TRUE(update.ok()) << update.status().ToString();
        // A fresh leaf exists only in the generating world so far.
        if (update->kind == UpdateKind::kInsert &&
            !twin.Contains(update->child)) {
          const Object* leaf = world.Get(update->child);
          ASSERT_NE(leaf, nullptr);
          ASSERT_TRUE(twin.Put(*leaf).ok());
        }
        Status applied = twin.Apply(*update);
        ASSERT_TRUE(applied.ok())
            << "step " << step << ": " << update->ToString() << ": "
            << applied.ToString();
      }
      EXPECT_EQ(StoreToString(twin), StoreToString(world));
    }
  }
}

TEST(UpdateGenTest, DagModeCreatesMultipleParentsButNoCycles) {
  ObjectStore store;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  auto tree = GenerateTree(&store, tree_options);
  ASSERT_TRUE(tree.ok());

  UpdateGenOptions options;
  options.mode = UpdateMode::kDagPreserving;
  options.p_insert = 0.8;
  options.p_delete = 0.1;
  options.p_modify = 0.1;
  options.seed = 13;
  UpdateGenerator generator(&store, tree->root, options);
  ASSERT_TRUE(generator.Run(200).ok());

  // No cycle: a DFS from the root must terminate and no node may reach
  // itself. EvalExpression's visited set would hide a cycle, so check by
  // looking for any node reachable from one of its children.
  OidSet reachable =
      EvalExpression(store, tree->root, *PathExpression::Parse("*"));
  for (const Oid& oid : reachable) {
    const Object* object = store.Get(oid);
    if (object == nullptr || !object->IsSet()) continue;
    for (const Oid& child : object->children()) {
      OidSet below = EvalExpression(store, child, *PathExpression::Parse("*"));
      EXPECT_FALSE(below.Contains(oid))
          << "cycle through " << oid.str() << " -> " << child.str();
    }
  }
}

}  // namespace
}  // namespace gsv
