#ifndef GSV_WAREHOUSE_REMOTE_ACCESSOR_H_
#define GSV_WAREHOUSE_REMOTE_ACCESSOR_H_

#include "core/base_accessor.h"
#include "warehouse/aux_cache.h"
#include "warehouse/update_event.h"
#include "warehouse/wrapper.h"

namespace gsv {

// The warehouse-side implementation of Algorithm 1's base-access functions
// (§5.1): each call is answered, in order of preference, from
//   1. the current update event (levels 2/3 carry values and root paths),
//   2. the auxiliary cache, when configured (§5.2),
//   3. a query back to the source through the wrapper (metered).
//
// The accessor is bound to one view's corridor: every path question
// Algorithm 1 asks (VerifyPath, MatchesRootPath) names a prefix of that
// view's sel_path.cond_path, which is all the cache holds.
//
// BaseAccessor's interface is infallible (Algorithm 1 predates the fault
// layer), so a failed query-back cannot propagate through the return value:
// the accessor records the first wrapper error in `last_error()` and
// answers with the empty/false fallback. Callers that care about source
// health — the warehouse integrator and the batch engine — ClearError()
// before a maintenance step and inspect last_error() after it; an
// Unavailable/DeadlineExceeded error quarantines the view instead of
// trusting the fallback answer.
class RemoteAccessor : public BaseAccessor {
 public:
  RemoteAccessor(SourceWrapper* wrapper, WarehouseCosts* costs)
      : wrapper_(wrapper), costs_(costs) {}

  // Optional §5.2 cache; not owned.
  void set_cache(AuxiliaryCache* cache) { cache_ = cache; }
  // The event being processed (nullptr between events); not owned.
  void set_current_event(const UpdateEvent* event) { event_ = event; }

  // First wrapper failure since the last ClearError (Ok when none).
  const Status& last_error() const { return error_; }
  void ClearError() { error_ = Status::Ok(); }

  std::vector<Oid> Ancestors(const Oid& n, const Path& p) override;
  std::vector<Oid> Eval(const Oid& n, const Path& p,
                        const std::optional<Predicate>& pred) override;
  bool VerifyPath(const Oid& root, const Oid& y, const Path& p) override;
  // A level-3 event that knows path(ROOT, N) answers by label equality;
  // otherwise VerifyPath answers, from the cache or one metered probe.
  bool MatchesRootPath(const Oid& root, const Oid& n, const Path& p) override;
  Result<Object> Fetch(const Oid& oid) override;

 private:
  bool EventKnowsRootPath(const Oid& n) const;
  void Hit() { ++costs_->cache_hits; }
  void Miss() { ++costs_->cache_misses; }
  void NoteError(const Status& status) {
    if (error_.ok()) error_ = status;
  }

  SourceWrapper* wrapper_;
  WarehouseCosts* costs_;
  AuxiliaryCache* cache_ = nullptr;
  const UpdateEvent* event_ = nullptr;
  Status error_ = Status::Ok();
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_REMOTE_ACCESSOR_H_
