#ifndef GSV_PERFBENCH_STREAM_GEN_H_
#define GSV_PERFBENCH_STREAM_GEN_H_

// The benchmark's update generator: the draw-for-draw logic of
// workload::UpdateGenerator (same kinds, same fall-backs, same random calls
// in the same order, so the same distribution), with one difference. The
// library generator keeps `const Oid&` references into its object lists
// across the Rescan() that a delete or a re-attach triggers, so the Update
// it returns can name a different parent than the one it changed; replaying
// such a stream on a second world fails. Here every chosen OID is copied
// before the lists are rebuilt, so the returned stream replays exactly.

#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "oem/store.h"
#include "util/random.h"
#include "workload/update_gen.h"

namespace gsv::perfbench {

class StreamGenerator {
 public:
  StreamGenerator(ObjectStore* store, Oid root, UpdateGenOptions options)
      : store_(store),
        root_(std::move(root)),
        options_(std::move(options)),
        rng_(options_.seed) {
    Rescan();
  }

  Result<Update> Step() {
    double total = options_.p_insert + options_.p_delete + options_.p_modify;
    double draw = rng_.NextDouble() * total;
    int first = draw < options_.p_insert
                    ? 0
                    : (draw < options_.p_insert + options_.p_delete ? 1 : 2);
    for (int offset = 0; offset < 3; ++offset) {
      Result<Update> result = Status::Internal("unreachable");
      switch ((first + offset) % 3) {
        case 0:
          result = TryInsert();
          break;
        case 1:
          result = TryDelete();
          break;
        default:
          result = TryModify();
          break;
      }
      if (result.ok()) return result;
    }
    return Status::FailedPrecondition("no valid update possible");
  }

 private:
  void Rescan() {
    sets_.clear();
    atoms_.clear();
    std::unordered_set<std::string> seen{root_.str()};
    std::deque<Oid> frontier{root_};
    while (!frontier.empty()) {
      Oid oid = frontier.front();
      frontier.pop_front();
      const Object* object = store_->Get(oid);
      if (object == nullptr) continue;
      if (object->IsSet()) {
        sets_.push_back(oid);
        for (const Oid& child : object->children()) {
          if (seen.insert(child.str()).second) frontier.push_back(child);
        }
      } else {
        atoms_.push_back(oid);
      }
    }
  }

  bool Reachable(const Oid& from, const Oid& target) const {
    std::unordered_set<std::string> seen{from.str()};
    std::deque<Oid> frontier{from};
    while (!frontier.empty()) {
      Oid oid = frontier.front();
      frontier.pop_front();
      if (oid == target) return true;
      const Object* object = store_->Get(oid);
      if (object == nullptr || !object->IsSet()) continue;
      for (const Oid& child : object->children()) {
        if (seen.insert(child.str()).second) frontier.push_back(child);
      }
    }
    return false;
  }

  Result<Update> TryModify() {
    if (atoms_.empty()) return Status::FailedPrecondition("no atomic objects");
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Oid target = atoms_[rng_.Uniform(atoms_.size())];
      const Object* object = store_->Get(target);
      if (object == nullptr || !object->IsAtomic()) continue;
      Value old_value = object->value();
      Value new_value = Value::Int(rng_.UniformInt(0, options_.max_value - 1));
      GSV_RETURN_IF_ERROR(store_->Modify(target, new_value));
      return Update::Modify(target, std::move(old_value), std::move(new_value));
    }
    return Status::FailedPrecondition("no modifiable object found");
  }

  Result<Update> TryDelete() {
    if (sets_.empty()) return Status::FailedPrecondition("no set objects");
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Oid parent = sets_[rng_.Uniform(sets_.size())];
      const Object* object = store_->Get(parent);
      if (object == nullptr || !object->IsSet() ||
          object->children().empty()) {
        continue;
      }
      const auto& children = object->children().elements();
      Oid child = children[rng_.Uniform(children.size())];
      GSV_RETURN_IF_ERROR(store_->Delete(parent, child));
      if (store_->Parents(child).empty()) detached_.push_back(child);
      Rescan();
      return Update::Delete(parent, child);
    }
    return Status::FailedPrecondition("no deletable edge found");
  }

  Result<Update> TryInsert() {
    if (sets_.empty()) return Status::FailedPrecondition("no set objects");
    const Oid parent = sets_[rng_.Uniform(sets_.size())];

    if (!detached_.empty() && rng_.Bernoulli(0.5)) {
      size_t index = rng_.Uniform(detached_.size());
      Oid child = detached_[index];
      if (store_->Contains(child) && !Reachable(child, parent)) {
        GSV_RETURN_IF_ERROR(store_->Insert(parent, child));
        detached_.erase(detached_.begin() + index);
        Rescan();
        return Update::Insert(parent, child);
      }
    }

    if (options_.mode == UpdateMode::kDagPreserving && !atoms_.empty() &&
        rng_.Bernoulli(0.5)) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::vector<Oid>& pool = rng_.Bernoulli(0.5) ? atoms_ : sets_;
        const Oid child = pool[rng_.Uniform(pool.size())];
        if (child == parent || Reachable(child, parent)) continue;
        const Object* parent_obj = store_->Get(parent);
        if (parent_obj == nullptr || parent_obj->children().Contains(child)) {
          continue;
        }
        GSV_RETURN_IF_ERROR(store_->Insert(parent, child));
        return Update::Insert(parent, child);
      }
    }

    const std::string& label =
        options_.leaf_labels[rng_.Uniform(options_.leaf_labels.size())];
    Oid fresh(options_.oid_prefix + std::to_string(fresh_counter_++));
    while (store_->Contains(fresh)) {
      fresh = Oid(options_.oid_prefix + std::to_string(fresh_counter_++));
    }
    GSV_RETURN_IF_ERROR(store_->PutAtomic(
        fresh, label, Value::Int(rng_.UniformInt(0, options_.max_value - 1))));
    GSV_RETURN_IF_ERROR(store_->Insert(parent, fresh));
    atoms_.push_back(fresh);
    return Update::Insert(parent, fresh);
  }

  ObjectStore* store_;
  Oid root_;
  UpdateGenOptions options_;
  Random rng_;
  size_t fresh_counter_ = 0;
  std::vector<Oid> sets_;
  std::vector<Oid> atoms_;
  std::vector<Oid> detached_;
};

}  // namespace gsv::perfbench

#endif  // GSV_PERFBENCH_STREAM_GEN_H_
