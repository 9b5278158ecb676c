#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace thrifty {

EventId EventQueue::Schedule(SimTime t, EventCallback cb) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  // Running out of either id field would alias or reorder events.
  if (slot > kSlotMask || next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("EventQueue: event id space exhausted");
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Key{t, id});
  SiftUp(static_cast<uint32_t>(heap_.size() - 1));
  return id;
}

void EventQueue::Cancel(EventId id) {
  const uint32_t slot = SlotOf(id);
  // A free slot holds kInvalidEventId, so that id is rejected first; a
  // stale id's slot is free or holds a later id.
  if (id == kInvalidEventId || slot >= slots_.size() ||
      slots_[slot].id != id) {
    return;
  }
  slots_[slot].cb = nullptr;
  RemoveAt(slots_[slot].pos);
}

EventCallback EventQueue::Pop(SimTime* time) {
  assert(!heap_.empty());
  const Key top = heap_.front();
  *time = top.time;
  EventCallback cb = std::move(slots_[SlotOf(top.id)].cb);
  RemoveAt(0);
  return cb;
}

void EventQueue::Place(uint32_t pos, const Key& key) {
  heap_[pos] = key;
  slots_[SlotOf(key.id)].pos = pos;
}

void EventQueue::SiftUp(uint32_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void EventQueue::RemoveAt(uint32_t pos) {
  const uint32_t slot = SlotOf(heap_[pos].id);
  slots_[slot].id = kInvalidEventId;
  free_slots_.push_back(slot);
  const Key last = heap_.back();
  heap_.pop_back();
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  if (pos == n) return;
  // Walk the hole down to a leaf along the earlier child, then fill it with
  // the last key and sift that up; this also lifts a last key that fires
  // before the removed key's parent.
  for (uint32_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    Place(pos, heap_[child]);
    pos = child;
  }
  heap_[pos] = last;
  SiftUp(pos);
}

}  // namespace thrifty
