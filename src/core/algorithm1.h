#ifndef GSV_CORE_ALGORITHM1_H_
#define GSV_CORE_ALGORITHM1_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/base_accessor.h"
#include "core/view_definition.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// The constant corridor of a simple view that Algorithm 1 matches updates
// against: sel_path, cond_path, their concatenation and the predicate.
struct SimpleCorridor {
  explicit SimpleCorridor(const ViewDefinition& def);

  Path sel_path;
  Path cond_path;
  Path full_path;                  // sel_path.cond_path
  std::optional<Predicate> pred;   // nullopt = no WHERE clause
};

// Algorithm 1 (paper §4.3): incremental maintenance of a *simple*
// materialized view — constant sel_path/cond_path, single predicate,
// tree-structured base — under the basic updates insert/delete/modify.
//
// All base access goes through a BaseAccessor, exactly mirroring the
// paper's isolation of path(ROOT,N), ancestor(N,p) and eval(N,p,cond):
// plug in a LocalAccessor for the centralized case (§4) or a
// RemoteAccessor for the warehouse (§5).
//
// Faithfulness notes:
//  * The delete sub-cases are implemented verbatim: when the deleted edge
//    lies in the select region (p = p1.cond_path), affected delegates are
//    dropped; when it lies in the condition region, the condition on Y is
//    re-examined because another descendant may still satisfy it
//    (the paper's non-unique-label observation, Example 5).
//  * For the condition-region delete the paper computes Y as
//    ancestor(X, cond_path) from the detached witness X; after the edge is
//    gone that climb cannot cross it, so we equivalently locate Y as
//    ancestor(N1, q) above the intact endpoint N1, with q the condition
//    prefix between Y and N1.
//  * The insert/delete test sel_path.cond_path = path(ROOT,N1).label(N2).p
//    is one MatchesRootPath probe per corridor position k with
//    full_path[k] = label(N2), never a listing of path(ROOT,N1): exact on
//    DAG bases (§6) however many root paths N1 has.
//  * Candidate ancestors are verified against path(ROOT,Y) = sel_path
//    before inserting (cheap: one |sel_path| climb). On a clean tree the
//    check is vacuous; it keeps the algorithm sound when grouping objects
//    (databases, §2) give nodes additional parents. Disable via Options to
//    measure the paper's bare algorithm.
class Algorithm1Maintainer : public UpdateListener {
 public:
  struct Options {
    // Verify path(ROOT,Y)=sel_path before V_insert / skipping V_delete.
    bool verify_candidates = true;
  };

  struct Stats {
    int64_t updates = 0;    // updates processed
    int64_t matched = 0;    // updates that passed the path-matching test
    int64_t v_inserts = 0;  // V_insert operations issued (incl. ignored)
    int64_t v_deletes = 0;  // V_delete operations issued (incl. ignored)
    int64_t rechecks = 0;   // eval(Y, cond_path, cond) re-examinations

    Stats& operator+=(const Stats& other) {
      updates += other.updates;
      matched += other.matched;
      v_inserts += other.v_inserts;
      v_deletes += other.v_deletes;
      rechecks += other.rechecks;
      return *this;
    }
  };

  // Returns OK iff `def` has the simple shape this algorithm maintains.
  static Status ValidateDefinition(const ViewDefinition& def);

  // `def` must satisfy ValidateDefinition. `root` is the resolved entry
  // object of the view query. All pointers must outlive the maintainer.
  Algorithm1Maintainer(ViewStorage* view, BaseAccessor* accessor,
                       const ViewDefinition& def, Oid root)
      : Algorithm1Maintainer(view, accessor, def, std::move(root), Options{}) {
  }
  Algorithm1Maintainer(ViewStorage* view, BaseAccessor* accessor,
                       const ViewDefinition& def, Oid root, Options options);
  // Shares an already built corridor, so a maintainer per task costs no
  // path copies (the warehouse builds one per drain task).
  Algorithm1Maintainer(ViewStorage* view, BaseAccessor* accessor,
                       std::shared_ptr<const SimpleCorridor> corridor,
                       Oid root);

  // Processes one base update (call right after the update is applied and
  // before any further update, §4.3).
  Status Maintain(const Update& update);

  // UpdateListener hookup for the centralized case: register on the base
  // store and every applied update is maintained immediately. Errors are
  // remembered in last_status().
  void OnUpdate(const ObjectStore& store, const Update& update) override;

  const Stats& stats() const { return stats_; }
  // Folds the stats of a worker maintainer (the batch engine evaluates with
  // per-task maintainers and merges after its barrier).
  void MergeStats(const Stats& other) { stats_ += other; }
  const Status& last_status() const { return last_status_; }

 private:
  Status OnInsert(const Update& update);
  Status OnDelete(const Update& update);
  Status OnModify(const Update& update);

  // True iff full_path[k] = `n2_label` and path(ROOT, n1) includes
  // full_path.Prefix(k): the insert/delete screen at corridor position k.
  bool RootPathMatches(const Oid& n1, size_t k, const std::string& n2_label);

  // True if `y` should be treated as the selected ancestor (candidate
  // verification; see Options).
  bool VerifySelected(const Oid& y);

  ViewStorage* view_;
  BaseAccessor* accessor_;
  Options options_;
  Oid root_;
  std::shared_ptr<const SimpleCorridor> corridor_;
  Stats stats_;
  Status last_status_;
};

}  // namespace gsv

#endif  // GSV_CORE_ALGORITHM1_H_
