// A dense table of values keyed by ids that the table's owner issues
// itself, in sequence (1, 2, 3, ...).
//
// The net path keys every connection by such an id: the fabric's
// connection ids and the TCP proxy's socket handles. A node-based hash map
// pays one heap node per key; an IdTable keeps the value for id `i` in slot
// `i` of fixed-size chunks, so an insert costs a chunk allocation once per
// kChunkSlots ids and a lookup is two indexings. Chunks never move, so a
// reference to a value stays valid across later inserts (callers hold one
// across co_await) until that id is erased.
//
// Memory follows the largest id inserted, not the live count: an erased
// slot is emptied but kept. That is the right trade only for ids issued
// densely by the owner. A value from outside (an application's handle) must
// go through Find, which never grows the table, so no outside value can
// size it.
#ifndef SOLROS_SRC_BASE_ID_TABLE_H_
#define SOLROS_SRC_BASE_ID_TABLE_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace solros {

template <std::integral Id, typename T>
class IdTable {
 public:
  static constexpr size_t kChunkSlots = 256;

  IdTable() = default;
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;

  // Constructs the value for `id` in place, growing the table to reach it.
  // `id` must be non-negative and not live.
  template <typename... Args>
  T& Emplace(Id id, Args&&... args) {
    if constexpr (std::is_signed_v<Id>) {
      CHECK(id >= 0) << "negative id " << id;
    }
    const size_t index = static_cast<size_t>(id);
    while (index >= slot_count()) {
      chunks_.push_back(std::make_unique<std::optional<T>[]>(kChunkSlots));
    }
    std::optional<T>& slot = SlotAt(index);
    CHECK(!slot.has_value()) << "id " << id << " is live";
    ++live_;
    return slot.emplace(std::forward<Args>(args)...);
  }

  // The live value for `id`, or null when `id` was never inserted, was
  // erased or is out of range (negative ids included).
  T* Find(Id id) {
    std::optional<T>* slot = Lookup(id);
    return slot == nullptr ? nullptr : &**slot;
  }
  const T* Find(Id id) const {
    return const_cast<IdTable*>(this)->Find(id);
  }

  // Destroys the value for `id`; false when it was not live.
  bool Erase(Id id) {
    std::optional<T>* slot = Lookup(id);
    if (slot == nullptr) {
      return false;
    }
    slot->reset();
    --live_;
    return true;
  }

  // Live values.
  size_t size() const { return live_; }
  // Slots allocated, live or not: the table's footprint in values.
  size_t slot_count() const { return chunks_.size() * kChunkSlots; }

  // Calls fn(value) for every live value, in increasing id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (size_t i = 0; i < kChunkSlots; ++i) {
        if (chunk[i].has_value()) {
          fn(*chunk[i]);
        }
      }
    }
  }

 private:
  std::optional<T>& SlotAt(size_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  std::optional<T>* Lookup(Id id) {
    if constexpr (std::is_signed_v<Id>) {
      if (id < 0) {
        return nullptr;
      }
    }
    if (static_cast<size_t>(id) >= slot_count()) {
      return nullptr;
    }
    std::optional<T>& slot = SlotAt(static_cast<size_t>(id));
    return slot.has_value() ? &slot : nullptr;
  }

  std::vector<std::unique_ptr<std::optional<T>[]>> chunks_;
  size_t live_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_BASE_ID_TABLE_H_
