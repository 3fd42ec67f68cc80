#include "warehouse/monitor.h"

#include <algorithm>

#include "path/navigate.h"

namespace gsv {

void SourceMonitor::OnUpdate(const ObjectStore& store, const Update& update) {
  UpdateEvent event;
  event.kind = update.kind;
  event.parent = update.parent;
  event.child = update.child;
  event.level = level_;
  event.sequence = ++sequence_;

  if (level_ >= ReportingLevel::kWithValues) {
    const Object* parent_object = store.Get(update.parent);
    if (parent_object != nullptr) event.parent_object = *parent_object;
    if (update.kind != UpdateKind::kModify) {
      const Object* child_object = store.Get(update.child);
      if (child_object != nullptr) event.child_object = *child_object;
    } else {
      event.old_value = update.old_value;
      event.new_value = update.new_value;
    }
  }

  if (level_ >= ReportingLevel::kWithRootPath) {
    // The source applied the update, so it knows the path it traversed to
    // reach the affected object (§5.1 scenario 3). We reconstruct one
    // root-path (with its OIDs) from the source's own indexes; this costs
    // the source, not the warehouse. On a DAG base the object can have
    // several root label paths, and one of them would under-report its
    // derivations: such an event carries a path without OIDs, which tells
    // the warehouse to probe the source itself. The listing is capped at
    // kPathProbe paths; a capped listing counts as ambiguous, so the cap
    // never hides a derivation, it only costs the warehouse its probes.
    constexpr size_t kPathProbe = 8;
    constexpr size_t kMaxDepth = 256;
    std::vector<Path> paths =
        PathsFromTo(store, root_, update.parent, kPathProbe, kMaxDepth);
    const bool unique =
        paths.size() < kPathProbe &&
        std::all_of(paths.begin(), paths.end(),
                    [&](const Path& path) { return path == paths[0]; });
    if (!paths.empty() && !unique) {
      RootPathInfo info;
      info.labels = paths[0];
      event.root_path = std::move(info);
    } else if (!paths.empty()) {
      RootPathInfo info;
      info.labels = paths[0];
      // Recover the OIDs along the path by walking it down from the root.
      info.oids.push_back(root_);
      Oid current = root_;
      for (size_t i = 0; i < info.labels.size(); ++i) {
        const Object* object = store.Get(current);
        if (object == nullptr || !object->IsSet()) break;
        // Follow the child that continues toward update.parent.
        Oid next;
        for (const Oid& child : object->children()) {
          const Object* child_object = store.Get(child);
          if (child_object == nullptr ||
              child_object->label() != info.labels.label(i)) {
            continue;
          }
          if (i + 1 == info.labels.size()) {
            if (child == update.parent) {
              next = child;
              break;
            }
          } else if (HasPathFromTo(store, child, update.parent,
                                   info.labels.Suffix(i + 1))) {
            next = child;
            break;
          }
        }
        if (!next.valid()) break;
        info.oids.push_back(next);
        current = next;
      }
      if (info.oids.size() == info.labels.size() + 1) {
        event.root_path = std::move(info);
      }
    }
  }
  sink_(event);
}

}  // namespace gsv
