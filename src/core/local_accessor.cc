#include <cstdint>

#include "core/base_accessor.h"
#include "path/navigate.h"
#include "path/path_index.h"

namespace gsv {

namespace {

// Inclusive int64 bounds of the values satisfying `<value> op literal` for
// integer comparisons. Returns false when bucket membership cannot decide
// the predicate (kNe holds for any value of a different type, so absence
// from a window proves nothing). An empty window comes back as lo > hi.
bool PredicateWindow(CompareOp op, int64_t literal, int64_t* lo, int64_t* hi) {
  switch (op) {
    case CompareOp::kEq:
      *lo = literal;
      *hi = literal;
      return true;
    case CompareOp::kLt:
      *lo = INT64_MIN;
      *hi = literal == INT64_MIN ? INT64_MIN : literal - 1;
      if (literal == INT64_MIN) *lo = 0, *hi = -1;  // empty
      return true;
    case CompareOp::kLe:
      *lo = INT64_MIN;
      *hi = literal;
      return true;
    case CompareOp::kGt:
      *lo = literal == INT64_MAX ? INT64_MAX : literal + 1;
      *hi = INT64_MAX;
      if (literal == INT64_MAX) *lo = 0, *hi = -1;  // empty
      return true;
    case CompareOp::kGe:
      *lo = literal;
      *hi = INT64_MAX;
      return true;
    case CompareOp::kNe:
      return false;
  }
  return false;
}

bool HoldsAtStore(const ObjectStore& store, uint32_t id,
                  const Predicate& pred) {
  const Object* object = store.Get(Oid::FromId(id));
  return object != nullptr && object->IsAtomic() &&
         pred.Holds(object->value());
}

}  // namespace

bool AnyCandidateSatisfies(const ObjectStore& store,
                           const LabelIndexSnapshot& snapshot,
                           const std::vector<uint32_t>& ids,
                           const std::string& label, const Predicate& pred,
                           StoreMetrics* metrics) {
  if (ids.empty()) return false;
  int64_t lo64 = 0;
  int64_t hi64 = 0;
  if (pred.literal.type() != ValueType::kInt ||
      !PredicateWindow(pred.op, pred.literal.AsInt(), &lo64, &hi64)) {
    // Unbatchable predicate shape: the plain per-id loop.
    for (uint32_t id : ids) {
      if (HoldsAtStore(store, id, pred)) return true;
    }
    return false;
  }

  // Intersect the satisfying window with the bucketable range. Candidates
  // present in the value postings carry in-range integers, so the bucket
  // comparison is exact for them; an empty intersection means no bucketed
  // candidate can satisfy.
  const bool window_empty = lo64 > hi64 || hi64 < INT32_MIN || lo64 > INT32_MAX;
  uint32_t bucket_lo = 0;
  uint32_t bucket_hi = 0;
  if (!window_empty) {
    int64_t clamped_lo = lo64 < INT32_MIN ? INT32_MIN : lo64;
    int64_t clamped_hi = hi64 > INT32_MAX ? INT32_MAX : hi64;
    bucket_lo = static_cast<uint32_t>(clamped_lo - INT32_MIN);
    bucket_hi = static_cast<uint32_t>(clamped_hi - INT32_MIN);
  }

  const Postings* values = snapshot.Values(label);
  bool found = false;
  std::vector<uint32_t> missing;  // candidates absent from `values`
  if (values != nullptr) {
    if (metrics != nullptr) {
      metrics->index_probes.fetch_add(1, std::memory_order_relaxed);
    }
    size_t cursor = 0;  // next candidate the sweep has not reached
    values->ScanHiRanges(ids, [&](uint64_t v) {
      const uint32_t id = PairHi(v);
      while (cursor < ids.size() && ids[cursor] < id) {
        missing.push_back(ids[cursor++]);
      }
      if (cursor < ids.size() && ids[cursor] == id) ++cursor;
      if (found || window_empty) return;
      const uint32_t bucket = PairLo(v);
      if (bucket >= bucket_lo && bucket <= bucket_hi) found = true;
    });
    while (cursor < ids.size()) missing.push_back(ids[cursor++]);
  } else {
    missing.assign(ids.begin(), ids.end());
  }
  if (found) return true;

  // Bucketless candidates: sets and missing objects fail Holds anyway, and
  // reals / big ints may satisfy an integer comparison numerically — the
  // store has the only exact answer for them.
  for (uint32_t id : missing) {
    if (HoldsAtStore(store, id, pred)) return true;
  }
  return false;
}

std::vector<Oid> LocalAccessor::Ancestors(const Oid& n, const Path& p) {
  ++stats_.ancestor_calls;
  return AncestorsByPath(*store_, n, p);
}

std::vector<Oid> LocalAccessor::Eval(const Oid& n, const Path& p,
                                     const std::optional<Predicate>& pred) {
  ++stats_.eval_calls;
  // Index-backed fast path: probe the snapshot for the raw interned ids and
  // apply the predicate *before* the lexicographic sort — an eval that ends
  // up empty (the common Algorithm 1 recheck outcome) then never pays for
  // ordering the frontier at all. The survivors are sorted into the same
  // canonical order the traversal path produces, so results stay
  // byte-identical between the two plans.
  if (!p.empty()) {
    if (LabelIndexSnapshotPtr snapshot = store_->AcquireIndexSnapshot()) {
      const Object* start = store_->Get(n);
      if (start == nullptr) return {};
      std::vector<uint32_t> ids =
          IndexEvalPathIds(*snapshot, n.id(), start->label(), p,
                           /*filter=*/nullptr, &store_->metrics());
      std::vector<Oid> out;
      out.reserve(ids.size());
      for (uint32_t id : ids) {
        Oid oid = Oid::FromId(id);
        if (pred.has_value()) {
          const Object* object = store_->Get(oid);
          if (object == nullptr || !object->IsAtomic() ||
              !pred->Holds(object->value())) {
            continue;
          }
        }
        out.push_back(oid);
      }
      SortOidsLexicographic(&out);
      return out;
    }
  }
  OidSet reached = EvalPath(*store_, n, p);
  // EvalPath only emits objects that exist, so an unpredicated eval needs
  // no per-result fetch — with the label index on, the whole call stays
  // inside posting scans.
  if (!pred.has_value()) return reached.elements();
  std::vector<Oid> out;
  for (const Oid& oid : reached) {
    const Object* object = store_->Get(oid);
    if (object != nullptr && object->IsAtomic() &&
        pred->Holds(object->value())) {
      out.push_back(oid);
    }
  }
  return out;
}

bool LocalAccessor::EvalAny(const Oid& n, const Path& p,
                            const std::optional<Predicate>& pred) {
  ++stats_.eval_calls;
  // Existence needs neither the lexicographic order nor the full witness
  // set, so the index path stops at the first id whose value satisfies the
  // predicate — the common Algorithm 1 recheck ("does any other descendant
  // still qualify?") then touches only a prefix of the frontier.
  if (!p.empty()) {
    if (LabelIndexSnapshotPtr snapshot = store_->AcquireIndexSnapshot()) {
      const Object* start = store_->Get(n);
      if (start == nullptr) return false;
      std::vector<uint32_t> ids =
          IndexEvalPathIds(*snapshot, n.id(), start->label(), p,
                           /*filter=*/nullptr, &store_->metrics());
      if (!pred.has_value()) return !ids.empty();
      // Batched recheck: one sweep over the terminal label's value postings
      // answers the whole frontier instead of a Get+Holds loop per id.
      return AnyCandidateSatisfies(*store_, *snapshot, ids, p.back(),
                                   pred.value(), &store_->metrics());
    }
  }
  OidSet reached = EvalPath(*store_, n, p);
  if (!pred.has_value()) return !reached.empty();
  for (const Oid& oid : reached) {
    const Object* object = store_->Get(oid);
    if (object != nullptr && object->IsAtomic() &&
        pred->Holds(object->value())) {
      return true;
    }
  }
  return false;
}

bool LocalAccessor::VerifyPath(const Oid& root, const Oid& y, const Path& p) {
  ++stats_.verify_calls;
  return HasPathFromTo(*store_, root, y, p);
}

Result<Object> LocalAccessor::Fetch(const Oid& oid) {
  ++stats_.fetches;
  const Object* object = store_->Get(oid);
  if (object == nullptr) {
    return Status::NotFound("object " + oid.str() + " not found in base");
  }
  return *object;
}

}  // namespace gsv
