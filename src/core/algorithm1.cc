#include "core/algorithm1.h"

#include <cassert>

namespace gsv {

Status Algorithm1Maintainer::ValidateDefinition(const ViewDefinition& def) {
  if (!def.IsSimple()) {
    return Status::InvalidArgument(
        "Algorithm 1 maintains simple views only (constant sel_path, at most "
        "one constant-path predicate); got: " +
        def.ToString());
  }
  return Status::Ok();
}

SimpleCorridor::SimpleCorridor(const ViewDefinition& def)
    : sel_path(def.sel_path()),
      cond_path(def.cond_path()),
      full_path(def.full_path()),
      pred(def.predicate()) {
  assert(Algorithm1Maintainer::ValidateDefinition(def).ok());
}

Algorithm1Maintainer::Algorithm1Maintainer(ViewStorage* view,
                                           BaseAccessor* accessor,
                                           const ViewDefinition& def, Oid root,
                                           Options options)
    : view_(view),
      accessor_(accessor),
      options_(options),
      root_(std::move(root)),
      corridor_(std::make_shared<const SimpleCorridor>(def)) {}

Algorithm1Maintainer::Algorithm1Maintainer(
    ViewStorage* view, BaseAccessor* accessor,
    std::shared_ptr<const SimpleCorridor> corridor, Oid root)
    : view_(view),
      accessor_(accessor),
      root_(std::move(root)),
      corridor_(std::move(corridor)) {}

Status Algorithm1Maintainer::Maintain(const Update& update) {
  ++stats_.updates;
  // Delegate values first, so membership decisions below see synced state.
  GSV_RETURN_IF_ERROR(view_->SyncUpdate(update));
  switch (update.kind) {
    case UpdateKind::kInsert:
      return OnInsert(update);
    case UpdateKind::kDelete:
      return OnDelete(update);
    case UpdateKind::kModify:
      return OnModify(update);
  }
  return Status::InvalidArgument("unknown update kind");
}

void Algorithm1Maintainer::OnUpdate(const ObjectStore& store,
                                    const Update& update) {
  (void)store;
  Status status = Maintain(update);
  if (!status.ok()) last_status_ = status;
}

bool Algorithm1Maintainer::VerifySelected(const Oid& y) {
  if (!options_.verify_candidates) return true;
  return accessor_->VerifyPath(root_, y, corridor_->sel_path);
}

// The label test comes first: a position off N2's label costs no probe.
bool Algorithm1Maintainer::RootPathMatches(const Oid& n1, size_t k,
                                           const std::string& n2_label) {
  const Path& full = corridor_->full_path;
  return full.label(k) == n2_label &&
         accessor_->MatchesRootPath(root_, n1, full.Prefix(k));
}

// When insert(N1,N2) occurs:
//   if sel_path.cond_path = path(ROOT,N1).label(N2).p
//   then S = eval(N2, p, cond);
//        for all X in S: V_insert(MV, MV.Y) where Y = ancestor(X, cond_path).
Status Algorithm1Maintainer::OnInsert(const Update& update) {
  const SimpleCorridor& c = *corridor_;
  GSV_ASSIGN_OR_RETURN(Object n2, accessor_->Fetch(update.child));
  bool matched = false;
  for (size_t k = 0; k < c.full_path.size(); ++k) {
    if (!RootPathMatches(update.parent, k, n2.label())) continue;
    matched = true;
    const Path p = c.full_path.Suffix(k + 1);
    for (const Oid& x : accessor_->Eval(update.child, p, c.pred)) {
      for (const Oid& y : accessor_->Ancestors(x, c.cond_path)) {
        if (!VerifySelected(y)) continue;
        GSV_ASSIGN_OR_RETURN(Object y_object, accessor_->Fetch(y));
        GSV_RETURN_IF_ERROR(view_->VInsert(y_object));
        ++stats_.v_inserts;
      }
    }
  }
  if (matched) ++stats_.matched;
  return Status::Ok();
}

// When delete(N1,N2) occurs:
//   if sel_path.cond_path = path(ROOT,N1).label(N2).p
//   then S = eval(N2, p, cond);
//        if p = p1.cond_path (edge in the select region):
//           V_delete(MV, MV.Y) for Y = ancestor(X, cond_path), X in S
//        else (edge in the condition region, below Y):
//           if eval(Y, cond_path, cond) = ∅ then V_delete(MV, MV.Y).
//
// Select-region note: the paper reaches the affected Y through its
// condition witnesses X. Right after the update the two are equivalent —
// a delegate exists only if a witness does — but when events are applied
// with a delay (§5's autonomous sources; Warehouse deferred mode) a
// later-queued modify may already have killed the witness at the source,
// and the corresponding modify event cannot clean up either (the corridor
// path is broken by then). We therefore locate the candidates through the
// select structure of the detached subtree — the objects in
// N2.(sel remainder) — which is update-order-insensitive.
Status Algorithm1Maintainer::OnDelete(const Update& update) {
  const SimpleCorridor& c = *corridor_;
  GSV_ASSIGN_OR_RETURN(Object n2, accessor_->Fetch(update.child));
  bool matched = false;
  // path(ROOT,N1) is unaffected by removing the N1->N2 edge below N1.
  for (size_t k = 0; k < c.full_path.size(); ++k) {
    if (!RootPathMatches(update.parent, k, n2.label())) continue;
    matched = true;
    const Path p = c.full_path.Suffix(k + 1);

    if (k + 1 <= c.sel_path.size()) {
      // Select region: the subtree's selected-level objects lost this
      // derivation from ROOT (the detached subtree stays evaluable).
      const Path sel_rest = c.sel_path.Suffix(k + 1);
      for (const Oid& y :
           accessor_->Eval(update.child, sel_rest, std::nullopt)) {
        if (!view_->ContainsBase(y)) continue;
        if (options_.verify_candidates &&
            accessor_->VerifyPath(root_, y, c.sel_path)) {
          continue;  // still derivable some other way; keep it
        }
        GSV_RETURN_IF_ERROR(view_->VDelete(y));
        ++stats_.v_deletes;
      }
    } else {
      // Condition region: Y sits above the deleted edge; if the detached
      // subtree held a witness, re-examine Y's condition because other
      // descendants may still satisfy it.
      if (!accessor_->EvalAny(update.child, p, c.pred)) continue;
      const Path q = c.cond_path.Prefix(k - c.sel_path.size());
      for (const Oid& y : accessor_->Ancestors(update.parent, q)) {
        if (!view_->ContainsBase(y)) continue;
        ++stats_.rechecks;
        if (!accessor_->EvalAny(y, c.cond_path, c.pred)) {
          GSV_RETURN_IF_ERROR(view_->VDelete(y));
          ++stats_.v_deletes;
        }
      }
    }
  }
  if (matched) ++stats_.matched;
  return Status::Ok();
}

// When modify(N, oldv, newv) occurs:
//   if path(ROOT,N) = sel_path.cond_path
//   then Y = ancestor(N, cond_path);
//        if cond(newv) then V_insert(MV, MV.Y)
//        else if cond(oldv) and eval(Y, cond_path, cond) = ∅
//             then V_delete(MV, MV.Y).
Status Algorithm1Maintainer::OnModify(const Update& update) {
  const SimpleCorridor& c = *corridor_;
  // No condition: membership depends on reachability only.
  if (!c.pred.has_value()) return Status::Ok();
  if (!accessor_->MatchesRootPath(root_, update.parent, c.full_path)) {
    return Status::Ok();
  }
  ++stats_.matched;

  for (const Oid& y : accessor_->Ancestors(update.parent, c.cond_path)) {
    if (c.pred->Holds(update.new_value)) {
      if (!VerifySelected(y)) continue;
      GSV_ASSIGN_OR_RETURN(Object y_object, accessor_->Fetch(y));
      GSV_RETURN_IF_ERROR(view_->VInsert(y_object));
      ++stats_.v_inserts;
    } else if (c.pred->Holds(update.old_value)) {
      ++stats_.rechecks;
      if (!accessor_->EvalAny(y, c.cond_path, c.pred)) {
        GSV_RETURN_IF_ERROR(view_->VDelete(y));
        ++stats_.v_deletes;
      }
    }
  }
  return Status::Ok();
}

}  // namespace gsv
