// Robustness: fuzz-style inputs must never crash — they either parse/apply
// or return a Status — plus larger-scale stress runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "path/navigate.h"
#include "path/path_expression.h"
#include "query/evaluator.h"
#include "query/explain.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "util/random.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

TEST(FuzzTest, ParserNeverCrashesOnTokenSoup) {
  const std::vector<std::string> vocabulary = {
      "SELECT", "WHERE",  "WITHIN", "ANS",  "INT",  "AND",   "OR",
      "define", "view",   "mview",  "as",   "X",    "ROOT",  "age",
      ".",      "*",      "?",      "(",    ")",    "=",     "!=",
      "<",      "<=",     ">",      ">=",   ":",    "42",    "3.5",
      "'str'",  "\"q\"",  "true",   "false", "-7",  "_id",   "a-b",
  };
  Random rng(1234);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string text;
    size_t tokens = rng.Uniform(12);
    for (size_t i = 0; i < tokens; ++i) {
      text += vocabulary[rng.Uniform(vocabulary.size())];
      text += ' ';
    }
    // Must not crash; either parses or reports an error.
    (void)ParseQuery(text);
    (void)ParseDefine(text);
  }
}

TEST(FuzzTest, LexerNeverCrashesOnRandomBytes) {
  Random rng(99);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string text;
    size_t length = rng.Uniform(40);
    for (size_t i = 0; i < length; ++i) {
      // Printable-ish ASCII plus a few controls.
      text += static_cast<char>(32 + rng.Uniform(96));
    }
    (void)Tokenize(text);
  }
}

TEST(FuzzTest, SerializerNeverCrashesOnMangledRecords) {
  const std::vector<std::string> pieces = {
      "obj", "db",   "A",     "lab", "int",  "real",   "string", "bool",
      "set", "42",   "x.y",   "\"", "\\\"", "true",   "#",      "",
      "-1",  "3.5",  "\"s\"", "obj A lab int 1",
  };
  Random rng(7);
  for (int iteration = 0; iteration < 1000; ++iteration) {
    std::string text;
    size_t lines = rng.Uniform(6);
    for (size_t line = 0; line < lines; ++line) {
      size_t tokens = rng.Uniform(7);
      for (size_t i = 0; i < tokens; ++i) {
        text += pieces[rng.Uniform(pieces.size())];
        text += ' ';
      }
      text += '\n';
    }
    ObjectStore store;
    (void)StoreFromString(text, &store);
  }
}

TEST(FuzzTest, RandomQueriesOverRandomTreesEvaluateSafely) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 3;
  options.fanout = 3;
  options.label_variety = 2;
  auto tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());

  const std::vector<std::string> paths = {"n1_0", "n1_1", "n2_0", "age", "*",
                                          "?", "n1_0.n2_0", "*.age", "?.?"};
  const std::vector<std::string> ops = {"=", "!=", "<", "<=", ">", ">="};
  Random rng(5);
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string text = "SELECT " + tree->root.str() + "." +
                       paths[rng.Uniform(paths.size())] + " X";
    if (rng.Bernoulli(0.7)) {
      text += " WHERE X." + paths[rng.Uniform(paths.size())] + " " +
              ops[rng.Uniform(ops.size())] + " " +
              std::to_string(rng.UniformInt(-5, 105));
    }
    Result<OidSet> result = EvaluateQueryText(store, text);
    ASSERT_TRUE(result.ok()) << text;
    for (const Oid& oid : *result) {
      ASSERT_TRUE(store.Contains(oid)) << "answers must be store objects";
    }
    // The explain path computes the same answer.
    Result<QueryExplanation> explanation = ExplainQueryText(store, text);
    ASSERT_TRUE(explanation.ok()) << text;
    ASSERT_EQ(explanation->answer, *result) << text;
  }
}

TEST(RobustnessTest, DeepChainsDoNotOverflow) {
  // A 300-deep chain: parsing, evaluation and upward climbs all bounded.
  ObjectStore store;
  const int kDepth = 300;
  ASSERT_TRUE(store.PutAtomic(Oid("leaf"), "age", Value::Int(1)).ok());
  Oid child("leaf");
  for (int i = 0; i < kDepth; ++i) {
    Oid node("c" + std::to_string(i));
    ASSERT_TRUE(store.PutSet(node, "link", {child}).ok());
    child = node;
  }
  // Downward evaluation over 300 links.
  std::string path_text;
  for (int i = 0; i < kDepth - 1; ++i) path_text += "link.";
  path_text += "age";
  auto path = Path::Parse(path_text);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(EvalPath(store, child, *path).size(), 1u);
  // Wildcard traversal visits the whole chain.
  EXPECT_EQ(
      EvalExpression(store, child, *PathExpression::Parse("*")).size(),
      static_cast<size_t>(kDepth) + 1);
  // Upward climb capped at max_depth=256: returns nothing rather than
  // recursing forever.
  EXPECT_TRUE(PathsFromTo(store, child, Oid("leaf"), 16, 256).empty());
  EXPECT_EQ(PathsFromTo(store, child, Oid("leaf"), 16, 1024).size(), 1u);
}

TEST(RobustnessTest, PathologicalContainmentTerminates) {
  // Alternating wildcards: subset construction stays small for the linear
  // NFAs this class produces.
  auto a = PathExpression::Parse("*.a.*.a.*.a.*");
  auto b = PathExpression::Parse("a.?.a.?.a.?.a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->Contains(*b));
  EXPECT_FALSE(b->Contains(*a));
}

TEST(StressTest, LargeTreeLongStreamStaysConsistent) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 4;
  options.fanout = 6;
  options.label_variety = 2;
  options.seed = 1001;
  auto tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_GT(store.size(), 1500u);

  auto def = ViewDefinition::Parse(
      TreeViewDefinition("BIG", tree->root, 2, 4, 60));
  ObjectStore view_store;
  MaterializedView view(&view_store, *def);
  ASSERT_TRUE(view.Initialize(store).ok());
  LocalAccessor accessor(&store);
  Algorithm1Maintainer maintainer(&view, &accessor, *def, tree->root);
  store.AddListener(&maintainer);

  UpdateGenOptions gen_options;
  gen_options.seed = 2002;
  UpdateGenerator generator(&store, tree->root, gen_options);
  ASSERT_TRUE(generator.Run(2000).ok());
  ASSERT_TRUE(maintainer.last_status().ok());

  ConsistencyReport report = CheckViewConsistency(view, store);
  EXPECT_TRUE(report.consistent) << report.ToString();
  EXPECT_GT(maintainer.stats().updates, 0);
}

}  // namespace
}  // namespace gsv
