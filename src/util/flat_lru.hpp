#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace mnemo::util {

/// Array-backed intrusive LRU keyed by 64-bit IDs, built for the replay
/// hot path (DESIGN.md §8): the simulator guarantees record keys are dense
/// integers [0, key_count), so membership is a vector index instead of a
/// hash lookup, and recency is prev/next *slot indices* inside one
/// contiguous slot pool instead of a std::list of heap nodes. Moving an
/// entry to the MRU end rewrites four integers; nothing is allocated once
/// the pool has grown to the working-set size (reserve() up front makes
/// steady state allocation-free).
///
/// The ID index grows on demand to cover the largest ID seen (4 bytes per
/// ID), so IDs must be dense — the LLC's record keys are.
///
/// Order semantics are exactly those of the std::list-based LRUs this
/// replaces: push_front/touch make an entry most-recent, back() is the
/// eviction victim.
template <typename Payload>
class FlatLru {
 public:
  /// Pre-size the dense index for IDs [0, ids) and the slot pool for
  /// `slots` resident entries, so steady-state operation never allocates.
  void reserve(std::size_t ids, std::size_t slots) {
    if (ids > dense_.size()) dense_.resize(ids, kAbsent);
    slots_.reserve(slots);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Payload of `id` without disturbing recency; nullptr if absent.
  [[nodiscard]] Payload* find(std::uint64_t id) {
    const std::int32_t slot = slot_of(id);
    return slot == kAbsent ? nullptr : &slots_[static_cast<std::size_t>(slot)]
                                            .payload;
  }
  [[nodiscard]] const Payload* find(std::uint64_t id) const {
    const std::int32_t slot = slot_of(id);
    return slot == kAbsent ? nullptr : &slots_[static_cast<std::size_t>(slot)]
                                            .payload;
  }

  /// Move `id` to the MRU end and return its payload; nullptr if absent.
  [[nodiscard]] Payload* touch(std::uint64_t id) {
    const std::int32_t slot = slot_of(id);
    if (slot == kAbsent) return nullptr;
    move_to_front(slot);
    return &slots_[static_cast<std::size_t>(slot)].payload;
  }

  /// Insert `id` (must be absent) at the MRU end.
  void push_front(std::uint64_t id, Payload payload) {
    std::int32_t slot;
    if (free_ != kAbsent) {
      slot = free_;
      free_ = slots_[static_cast<std::size_t>(slot)].next;
    } else {
      MNEMO_ASSERT(slots_.size() <
                   static_cast<std::size_t>(kAbsent));
      slot = static_cast<std::int32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.id = id;
    s.payload = std::move(payload);
    s.prev = kAbsent;
    s.next = head_;
    if (head_ != kAbsent) slots_[static_cast<std::size_t>(head_)].prev = slot;
    head_ = slot;
    if (tail_ == kAbsent) tail_ = slot;
    set_slot_of(id, slot);
    ++size_;
  }

  /// LRU-end entry; requires a non-empty LRU.
  [[nodiscard]] std::uint64_t back_id() const {
    MNEMO_EXPECTS(tail_ != kAbsent);
    return slots_[static_cast<std::size_t>(tail_)].id;
  }
  [[nodiscard]] const Payload& back() const {
    MNEMO_EXPECTS(tail_ != kAbsent);
    return slots_[static_cast<std::size_t>(tail_)].payload;
  }

  /// Drop the LRU-end entry (the eviction victim).
  void pop_back() {
    MNEMO_EXPECTS(tail_ != kAbsent);
    erase_slot(tail_);
  }

  /// Drop `id` if present; returns whether it was.
  bool erase(std::uint64_t id) {
    const std::int32_t slot = slot_of(id);
    if (slot == kAbsent) return false;
    erase_slot(slot);
    return true;
  }

  void clear() {
    // Keep the grown capacity (dense table + slot pool) so a clear between
    // measurement phases does not re-trigger warm-up allocations.
    for (std::size_t i = 0; i < dense_.size(); ++i) dense_[i] = kAbsent;
    slots_.clear();
    head_ = tail_ = free_ = kAbsent;
    size_ = 0;
  }

 private:
  static constexpr std::int32_t kAbsent = -1;

  struct Slot {
    std::uint64_t id = 0;
    std::int32_t prev = kAbsent;
    std::int32_t next = kAbsent;
    Payload payload{};
  };

  [[nodiscard]] std::int32_t slot_of(std::uint64_t id) const {
    return id < dense_.size() ? dense_[static_cast<std::size_t>(id)]
                              : kAbsent;
  }

  void set_slot_of(std::uint64_t id, std::int32_t slot) {
    if (id >= dense_.size()) {
      std::size_t grown = dense_.empty() ? 64 : dense_.size() * 2;
      while (grown <= id) grown *= 2;
      dense_.resize(grown, kAbsent);
    }
    dense_[static_cast<std::size_t>(id)] = slot;
  }

  void unlink(std::int32_t slot) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (s.prev != kAbsent) {
      slots_[static_cast<std::size_t>(s.prev)].next = s.next;
    } else {
      head_ = s.next;
    }
    if (s.next != kAbsent) {
      slots_[static_cast<std::size_t>(s.next)].prev = s.prev;
    } else {
      tail_ = s.prev;
    }
  }

  void move_to_front(std::int32_t slot) {
    if (slot == head_) return;
    unlink(slot);
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.prev = kAbsent;
    s.next = head_;
    slots_[static_cast<std::size_t>(head_)].prev = slot;
    head_ = slot;
    if (tail_ == kAbsent) tail_ = slot;
  }

  void erase_slot(std::int32_t slot) {
    unlink(slot);
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    dense_[static_cast<std::size_t>(s.id)] = kAbsent;
    s.next = free_;
    free_ = slot;
    --size_;
  }

  std::vector<Slot> slots_;          ///< entry pool
  std::vector<std::int32_t> dense_;  ///< id → slot, -1 absent
  std::int32_t head_ = kAbsent;  ///< MRU end
  std::int32_t tail_ = kAbsent;  ///< LRU end (eviction victim)
  std::int32_t free_ = kAbsent;  ///< slot free list, threaded via next
  std::size_t size_ = 0;
};

}  // namespace mnemo::util
