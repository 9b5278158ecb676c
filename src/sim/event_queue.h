// Cancellable priority event queue for the discrete-event engine.

#ifndef THRIFTY_SIM_EVENT_QUEUE_H_
#define THRIFTY_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Handle identifying a scheduled event (for cancellation).
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// \brief Callback invoked when an event fires; receives the firing time.
using EventCallback = std::function<void(SimTime)>;

/// \brief Time-ordered queue of cancellable events.
///
/// Events at equal times fire in scheduling order, so simulation runs are
/// fully deterministic. The queue is an indexed binary heap of 16-byte
/// (time, id) keys: each callback sits in a reusable slot that records its
/// key's heap position, so Cancel is O(log n) and only live events are
/// held. An id is `sequence << kSlotBits | slot`, so ids grow in scheduling
/// order; an id its slot no longer holds (fired, cancelled, or the slot
/// reused) is stale.
class EventQueue {
 public:
  /// \brief Schedules `cb` at absolute time `t`; returns a cancellation
  /// handle.
  EventId Schedule(SimTime t, EventCallback cb);

  /// \brief Cancels a previously scheduled event in O(log n). Cancelling an
  /// already fired or already cancelled event is a harmless no-op.
  void Cancel(EventId id);

  /// \brief True if no live event remains.
  bool Empty() const { return heap_.empty(); }

  /// \brief Time of the earliest live event; kNeverTime if empty.
  SimTime NextTime() const {
    return heap_.empty() ? kNeverTime : heap_.front().time;
  }

  /// \brief Removes and returns the earliest live event.
  ///
  /// Must not be called when Empty(). Sets *time to the event's time.
  EventCallback Pop(SimTime* time);

  /// \brief Number of live (scheduled, not yet fired or cancelled) events.
  size_t LiveCount() const { return heap_.size(); }

  /// \brief Number of callback slots ever allocated: the peak of
  /// LiveCount(), since freed slots are reused before new ones are made.
  size_t SlotCount() const { return slots_.size(); }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Key {
    SimTime time;
    EventId id;
  };
  struct Slot {
    EventId id = kInvalidEventId;  // kInvalidEventId while the slot is free
    uint32_t pos = 0;              // index of the slot's key in heap_
    EventCallback cb;
  };

  static bool Before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id & kSlotMask);
  }

  /// \brief Stores `key` at heap index `pos` and records the position.
  void Place(uint32_t pos, const Key& key);
  void SiftUp(uint32_t pos);
  /// \brief Removes the key at heap index `pos` and frees its slot.
  void RemoveAt(uint32_t pos);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 1;
};

}  // namespace thrifty

#endif  // THRIFTY_SIM_EVENT_QUEUE_H_
