#ifndef GSV_CORE_BASE_ACCESSOR_H_
#define GSV_CORE_BASE_ACCESSOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "oem/object.h"
#include "oem/oid.h"
#include "path/path.h"
#include "query/condition.h"
#include "util/status.h"

namespace gsv {

// The operations of Algorithm 1 that "may need to examine base data"
// (paper §4.3: "the algorithm we provide here isolates the computations
// that need access to the base databases"). A centralized system implements
// them directly on the store (LocalAccessor); a warehouse implements them
// by querying back to the sources, exploiting whatever the update event
// carried and whatever is cached (RemoteAccessor, §5).
class BaseAccessor {
 public:
  struct Stats {
    int64_t ancestor_calls = 0;  // ancestor(N, p) evaluations
    int64_t eval_calls = 0;      // eval(N, p, cond) evaluations
    int64_t fetches = 0;         // whole-object fetches
    int64_t verify_calls = 0;    // path probes (VerifyPath, MatchesRootPath)
  };

  virtual ~BaseAccessor() = default;

  // ancestor(N, p): the objects X with path(X, N) = p. ancestor(N, ∅) = {N}.
  virtual std::vector<Oid> Ancestors(const Oid& n, const Path& p) = 0;

  // eval(N, p, cond): the objects in N.p whose (atomic) value satisfies the
  // predicate. A missing predicate means "always true", so the result is
  // all of N.p (used for views with no WHERE clause).
  virtual std::vector<Oid> Eval(const Oid& n, const Path& p,
                                const std::optional<Predicate>& pred) = 0;

  // True iff eval(N, p, cond) is non-empty. Algorithm 1's deletion recheck
  // ("and eval(Y, cond_path, cond) = ∅") only needs existence, so accessors
  // may answer without materializing (or ordering) the witness set.
  virtual bool EvalAny(const Oid& n, const Path& p,
                       const std::optional<Predicate>& pred) {
    return !Eval(n, p, pred).empty();
  }

  // True iff path(root, y) includes exactly `p` — the candidate check that
  // keeps Algorithm 1 sound when grouping objects give nodes extra parents.
  virtual bool VerifyPath(const Oid& root, const Oid& y, const Path& p) = 0;

  // True iff path(ROOT, N) includes `p`: Algorithm 1's only question about
  // root paths. Its modify screen asks it for sel_path.cond_path, its
  // insert/delete screens for each corridor prefix whose next label is
  // label(N2). path(ROOT, N) itself is never listed, so the answer is exact
  // on DAG bases (§6). The default is the VerifyPath probe; warehouse
  // accessors first try the root path a level-3 event carries.
  virtual bool MatchesRootPath(const Oid& root, const Oid& n, const Path& p) {
    return VerifyPath(root, n, p);
  }

  // Retrieves a full object (label + value), e.g. to create its delegate.
  virtual Result<Object> Fetch(const Oid& oid) = 0;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 protected:
  Stats stats_;
};

// Batched predicate existence check over the candidate frontier of an
// indexed eval: `ids` (sorted ascending, unique, all carrying `label`) came
// out of IndexEvalPathIds. Instead of a Get+Holds round trip per id, one
// monotone sweep over the label's value postings answers every candidate
// whose value is a bucketable integer — only candidates the buckets cannot
// speak for (reals, strings, out-of-range ints, which CompareValues may
// still satisfy numerically) fall back to the store. Exact for every
// predicate shape; non-window shapes (kNe, non-integer literals) degrade to
// the per-id loop internally.
bool AnyCandidateSatisfies(const ObjectStore& store,
                           const LabelIndexSnapshot& snapshot,
                           const std::vector<uint32_t>& ids,
                           const std::string& label, const Predicate& pred,
                           StoreMetrics* metrics);

// Direct implementation over a local ObjectStore (centralized system, §4).
class LocalAccessor : public BaseAccessor {
 public:
  explicit LocalAccessor(const ObjectStore* store) : store_(store) {}

  std::vector<Oid> Ancestors(const Oid& n, const Path& p) override;
  std::vector<Oid> Eval(const Oid& n, const Path& p,
                        const std::optional<Predicate>& pred) override;
  bool EvalAny(const Oid& n, const Path& p,
               const std::optional<Predicate>& pred) override;
  bool VerifyPath(const Oid& root, const Oid& y, const Path& p) override;
  Result<Object> Fetch(const Oid& oid) override;

 private:
  const ObjectStore* store_;
};

}  // namespace gsv

#endif  // GSV_CORE_BASE_ACCESSOR_H_
