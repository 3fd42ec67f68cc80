#include "ivm/gdn_listener.h"

#include <utility>
#include <vector>

namespace gsv {

GdnListener::GdnListener(ViewStorage* view, const ObjectStore* base,
                         const ViewDefinition& def, Oid root)
    : view_(view),
      base_(base),
      valid_(GdnEngine::ValidateDefinition(def)),
      engine_(base, def, std::move(root)) {}

Status GdnListener::Initialize() {
  GSV_RETURN_IF_ERROR(valid_);
  known_.clear();
  base_->ForEach(
      [&](const Object& object) { known_.insert(object.oid().id()); });
  GSV_RETURN_IF_ERROR(engine_.Initialize());
  return engine_.Reconcile(view_);
}

void GdnListener::OnUpdate(const ObjectStore& store, const Update& update) {
  Record(engine_.ApplyOrRebuild(update, view_));
  if (update.kind != UpdateKind::kInsert) return;
  // Walk the newly attached objects below the inserted child; known
  // objects bound the walk, since every edge out of them was an event.
  std::vector<Oid> stack{update.child};
  while (!stack.empty()) {
    const Oid oid = std::move(stack.back());
    stack.pop_back();
    if (!known_.insert(oid.id()).second) continue;
    const Object* object = store.Get(oid);
    if (object == nullptr || !object->IsSet()) continue;
    for (const Oid& child : object->children()) {
      Record(engine_.ApplyOrRebuild(Update::Insert(oid, child), view_));
      stack.push_back(child);
    }
  }
}

void GdnListener::Record(const Status& status) {
  if (!status.ok() && last_status_.ok()) last_status_ = status;
}

}  // namespace gsv
