#ifndef GSV_IVM_GDN_LISTENER_H_
#define GSV_IVM_GDN_LISTENER_H_

#include <unordered_set>

#include "core/view_definition.h"
#include "core/view_storage.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// Keeps one standalone materialized view current by attaching a
// discrimination network to the base store as an UpdateListener (the
// centralized setting: shell live views, benches, examples). The warehouse
// drives its GdnEngines directly instead.
//
// A poisoned network heals in place (GdnEngine::ApplyOrRebuild). Objects
// Put() into the store arrive silently, together with their initial child
// sets; when an inserted edge first attaches such objects, the listener
// replays their silent edges as inserts so the network sees the whole new
// subtree — reconciliation makes each replay idempotent.
class GdnListener : public UpdateListener {
 public:
  // `view` must already hold the materialization of `def` over `base`.
  // `view`, `base` and the definition's condition tree must outlive the
  // listener. Rejects what GdnEngine::ValidateDefinition rejects.
  GdnListener(ViewStorage* view, const ObjectStore* base,
              const ViewDefinition& def, Oid root);

  // Builds the network from the current base state and reconciles `view`
  // with it. Call before attaching the listener to the store.
  Status Initialize();

  void OnUpdate(const ObjectStore& store, const Update& update) override;

  GdnEngine& engine() { return engine_; }
  // The first maintenance error since construction (Ok when none).
  const Status& last_status() const { return last_status_; }

 private:
  void Record(const Status& status);

  ViewStorage* view_;
  const ObjectStore* base_;
  Status valid_;
  GdnEngine engine_;
  // Ids of objects the network has seen: everything stored at Initialize,
  // plus every object an inserted edge has attached since.
  std::unordered_set<uint32_t> known_;
  Status last_status_;
};

}  // namespace gsv

#endif  // GSV_IVM_GDN_LISTENER_H_
