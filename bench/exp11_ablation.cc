// E11 — Ablations of this implementation's design choices (DESIGN.md):
//
//  * candidate verification (path(ROOT,Y)=sel_path probe before acting):
//    vacuous on clean trees — what does the safety cost over the paper's
//    bare Algorithm 1, and what does it prevent on grouped bases?
//  * delegate value synchronization (§3.2's "delegates have the same value
//    as the original"): maintenance overhead of keeping copies fresh;
//  * incremental edge swizzling: overhead on V_insert/V_delete.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/algorithm1.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "oem/store.h"
#include "util/stopwatch.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

struct Trial {
  double us_per_update = 0;
  // Every path probe: candidate verification plus Algorithm 1's root-path
  // screens (MatchesRootPath), which run with verification off too.
  int64_t path_probes = 0;
  bool consistent = false;
};

Trial Run(bool verify, bool sync, bool swizzle, size_t updates) {
  ObjectStore store;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 5;
  tree_options.seed = 41;
  auto tree = GenerateTree(&store, tree_options);
  bench::Check(tree.status().ok() ? Status::Ok() : tree.status());
  auto def = ViewDefinition::Parse(
      TreeViewDefinition("AV", tree->root, 2, 3, 50));

  ObjectStore view_store;
  MaterializedView::Options view_options;
  view_options.sync_values = sync;
  view_options.swizzle = swizzle;
  MaterializedView view(&view_store, *def, view_options);
  bench::Check(view.Initialize(store));

  LocalAccessor accessor(&store);
  Algorithm1Maintainer::Options algo_options;
  algo_options.verify_candidates = verify;
  Algorithm1Maintainer maintainer(&view, &accessor, *def, tree->root,
                                  algo_options);
  store.AddListener(&maintainer);

  UpdateGenOptions gen_options;
  gen_options.seed = 43;
  UpdateGenerator generator(&store, tree->root, gen_options);
  Stopwatch watch;
  bench::Check(generator.Run(updates).status().ok()
                   ? Status::Ok()
                   : Status::Internal("stream failed"));
  Trial trial;
  trial.us_per_update =
      static_cast<double>(watch.ElapsedMicros()) / static_cast<double>(updates);
  trial.path_probes = accessor.stats().verify_calls;
  // Value-consistency can only hold with sync on; compare membership only
  // when it's off.
  if (sync) {
    trial.consistent = CheckViewConsistency(view, store).consistent;
  } else {
    auto truth = EvaluateView(store, *def);
    trial.consistent = truth.ok() && view.BaseMembers() == *truth;
  }
  return trial;
}

}  // namespace
}  // namespace gsv

int main() {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  const size_t kUpdates = 600;
  std::printf(
      "E11: implementation ablations (clean tree, %zu random updates)\n\n",
      kUpdates);

  TablePrinter table({"verify", "sync", "swizzle", "us/update",
                      "path probes", "correct"});
  struct Config {
    bool verify, sync, swizzle;
  };
  const Config configs[] = {
      {true, true, false},   // default
      {false, true, false},  // bare Algorithm 1 (paper, clean tree only)
      {true, false, false},  // membership only, stale delegate values
      {true, true, true},    // plus incremental swizzling
  };
  for (const Config& config : configs) {
    Trial trial = Run(config.verify, config.sync, config.swizzle, kUpdates);
    table.Row({config.verify ? "on" : "off", config.sync ? "on" : "off",
               config.swizzle ? "on" : "off", Micros(trial.us_per_update),
               Num(trial.path_probes), trial.consistent ? "yes" : "NO"});
  }

  // What verification buys: on a base with a grouping object (the paper's
  // own PERSON database gives every node a second parent), the bare
  // algorithm over-inserts.
  {
    ObjectStore store;
    bench::Check(store.PutSet(Oid("R"), "root"));
    bench::Check(store.PutAtomic(Oid("A"), "age", Value::Int(10)));
    bench::Check(store.PutSet(Oid("S"), "n1_0", {}));
    bench::Check(store.PutSet(Oid("GROUP"), "group", {Oid("S"), Oid("A")}));
    bench::Check(store.AddChildRaw(Oid("R"), Oid("S")));

    auto def = ViewDefinition::Parse(
        "define mview GV as: SELECT R.n1_0 X WHERE X.age <= 50");
    for (bool verify : {true, false}) {
      ObjectStore view_store;
      MaterializedView view(&view_store, *def);
      bench::Check(view.Initialize(store));
      LocalAccessor accessor(&store);
      Algorithm1Maintainer::Options algo_options;
      algo_options.verify_candidates = verify;
      Algorithm1Maintainer maintainer(&view, &accessor, *def, Oid("R"),
                                      algo_options);
      store.AddListener(&maintainer);
      // Insert the age leaf under S: GROUP is also an ancestor of A via
      // "age"... the candidate set contains spurious parents when the
      // grouping object also reaches S.
      bench::Check(store.Insert(Oid("S"), Oid("A")));
      auto truth = EvaluateView(store, *def);
      bool correct = truth.ok() && view.BaseMembers() == *truth;
      std::printf(
          "\ngrouped base, verification %s: view %s (members=%zu, "
          "truth=%zu)",
          verify ? "on " : "off", correct ? "correct" : "WRONG",
          view.size(), truth.ok() ? truth->size() : 0);
      bench::Check(store.Delete(Oid("S"), Oid("A")));
      store.RemoveListener(&maintainer);
    }
    std::printf("\n");
  }

  std::printf(
      "\nExpected shape: verification and value sync each cost a few\n"
      "percent per update; verification is what keeps maintenance exact\n"
      "when grouping objects give nodes extra parents (§2's database\n"
      "objects do exactly that).\n");
  return 0;
}
