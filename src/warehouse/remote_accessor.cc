#include "warehouse/remote_accessor.h"

#include "util/retry.h"

namespace gsv {

bool RemoteAccessor::EventKnowsRootPath(const Oid& n) const {
  // Level 3 events carry path(ROOT, N) for the affected object (unless the
  // source reported it ambiguous: no OIDs).
  return event_ != nullptr && event_->level >= ReportingLevel::kWithRootPath &&
         event_->parent == n &&
         (!event_->root_path.has_value() || !event_->root_path->oids.empty());
}

std::vector<Oid> RemoteAccessor::Ancestors(const Oid& n, const Path& p) {
  ++stats_.ancestor_calls;
  if (p.empty()) {
    Hit();
    return {n};
  }
  if (cache_ != nullptr) {
    Hit();
    return cache_->Ancestors(n, p);
  }
  Miss();
  Result<std::vector<Oid>> ancestors = wrapper_->FetchAncestors(n, p);
  if (!ancestors.ok()) {
    NoteError(ancestors.status());
    return {};
  }
  return std::move(ancestors).value();
}

std::vector<Oid> RemoteAccessor::Eval(const Oid& n, const Path& p,
                                      const std::optional<Predicate>& pred) {
  ++stats_.eval_calls;
  auto filter = [&](const std::vector<Object>& objects) {
    std::vector<Oid> out;
    for (const Object& object : objects) {
      if (!pred.has_value()) {
        out.push_back(object.oid());
      } else if (object.IsAtomic() && pred->Holds(object.value())) {
        out.push_back(object.oid());
      }
    }
    return out;
  };

  // eval(N2, ∅, cond) right after an insert/delete of N2: the level-2
  // event snapshot answers it without any query (the §5.1 screening win).
  if (p.empty() && event_ != nullptr && event_->child == n &&
      event_->child_object.has_value()) {
    Hit();
    return filter({*event_->child_object});
  }
  if (cache_ != nullptr) {
    std::optional<std::vector<Object>> cached = cache_->EvalObjects(n, p);
    if (cached.has_value()) {
      Hit();
      return filter(*cached);
    }
    // Partial cache: structure known, values missing (§5.2).
  }
  Miss();
  Result<std::vector<Object>> objects = wrapper_->FetchPathObjects(n, p);
  if (!objects.ok()) {
    NoteError(objects.status());
    return {};
  }
  return filter(*objects);
}

bool RemoteAccessor::VerifyPath(const Oid& root, const Oid& y,
                                const Path& p) {
  ++stats_.verify_calls;
  if (cache_ != nullptr) {
    Hit();
    return cache_->VerifyPath(y, p);
  }
  Miss();
  Result<bool> verified = wrapper_->VerifyPath(root, y, p);
  if (!verified.ok()) {
    NoteError(verified.status());
    return false;
  }
  return *verified;
}

bool RemoteAccessor::MatchesRootPath(const Oid& root, const Oid& n,
                                     const Path& p) {
  if (EventKnowsRootPath(n)) {
    ++stats_.verify_calls;
    Hit();
    return event_->root_path.has_value() && event_->root_path->labels == p;
  }
  return VerifyPath(root, n, p);
}

Result<Object> RemoteAccessor::Fetch(const Oid& oid) {
  ++stats_.fetches;
  if (event_ != nullptr) {
    if (event_->child_object.has_value() &&
        event_->child_object->oid() == oid) {
      Hit();
      return *event_->child_object;
    }
    if (event_->parent_object.has_value() &&
        event_->parent_object->oid() == oid) {
      Hit();
      return *event_->parent_object;
    }
  }
  if (cache_ != nullptr) {
    Result<Object> cached = cache_->Fetch(oid);
    if (cached.ok()) {
      Hit();
      return cached;
    }
  }
  Miss();
  Result<Object> fetched = wrapper_->FetchObject(oid);
  if (!fetched.ok() && IsSourceFailure(fetched.status())) {
    NoteError(fetched.status());
  }
  return fetched;
}

}  // namespace gsv
