#pragma once
// Build-once slot map: the one memoization primitive behind FlowCache's
// three caches, the guardband service's response caches and each
// implementation's thermal unit responses (core::Implementation).
//
// Each distinct key owns one slot. The first caller to claim a key is its
// builder and must later fill() the slot with a value or fail() it with
// an exception; every other claimant (and the builder) wait() until the
// slot is ready, then read the value or rethrow the error. A slot is
// filled or failed once: fail() leaves an already-filled slot alone, so a
// builder that throws after filling part of its work never poisons the
// values it already published.
//
// Keys are compared with ==, not only hashed: two unequal keys whose
// hashes collide still get separate slots. Entries are never evicted, and
// std::unordered_map nodes do not move, so slot and key references stay
// valid for the map's lifetime (until clear()).
//
// One mutex and one condition variable serve the whole map (slots carry
// no synchronization of their own, which keeps a slot to its value plus
// 16 bytes), and a Locked handle claims or waits for a whole batch of
// keys under a single acquisition. Builds run outside the lock.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace taf::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BuildOnceMap {
 public:
  class Slot {
    friend class BuildOnceMap;
    bool ready_ = false;        // guarded by the map's mutex_
    std::exception_ptr error_;  // guarded by the map's mutex_
    Value value_{};             // written once, before ready_
  };

  struct Claim {
    const Key& key;  ///< the map's own copy of the key
    Slot& slot;
    bool claimed;    ///< true: this caller created the slot and must build it
  };

  /// Holds the map lock, so a batch claims or waits for all its keys
  /// under one acquisition.
  class Locked {
   public:
    explicit Locked(BuildOnceMap& map) : map_(map), lock_(map.mutex_) {}

    /// Find-or-create the slot of `key`.
    Claim claim(Key key) {
      auto [it, inserted] = map_.slots_.try_emplace(std::move(key));
      return Claim{it->first, it->second, inserted};
    }

    /// Block until `slot` is ready (releasing the lock meanwhile);
    /// rethrows a failed build's error. The value is written once before
    /// ready and never again, so the reference stays valid and may be
    /// read after the lock is released.
    const Value& wait(Slot& slot) {
      map_.ready_cv_.wait(lock_, [&slot] { return slot.ready_; });
      if (slot.error_) std::rethrow_exception(slot.error_);
      return slot.value_;
    }

   private:
    BuildOnceMap& map_;
    std::unique_lock<std::mutex> lock_;
  };

  Locked lock() { return Locked(*this); }

  Claim claim(Key key) { return lock().claim(std::move(key)); }

  const Value& wait(Slot& slot) { return lock().wait(slot); }

  /// Publish the value of a claimed slot and wake its waiters (its
  /// builder only, once).
  void fill(Slot& slot, Value value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot.value_ = std::move(value);
      slot.ready_ = true;
    }
    ready_cv_.notify_all();
  }

  /// Publish `error` unless the slot is already filled or failed.
  void fail(Slot& slot, std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (slot.ready_) return;
      slot.error_ = std::move(error);
      slot.ready_ = true;
    }
    ready_cv_.notify_all();
  }

  /// Claim, build on a miss (build() returns the Value; a throw fails
  /// the slot), then wait. The counters, when given, count this call as a
  /// hit or a miss.
  template <typename Build>
  const Value& get_or_build(Key key, const Build& build,
                            std::atomic<std::uint64_t>* hits = nullptr,
                            std::atomic<std::uint64_t>* misses = nullptr) {
    const Claim c = claim(std::move(key));
    std::atomic<std::uint64_t>* counter = c.claimed ? misses : hits;
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
    if (c.claimed) {
      try {
        fill(c.slot, build());
      } catch (...) {
        fail(c.slot, std::current_exception());
      }
    }
    return wait(c.slot);
  }

  /// Number of slots: filled, failed or still being built.
  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

  /// Drop every slot. Invalidates all references handed out.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }

 private:
  std::mutex mutex_;  // guards slots_ and every slot's ready_/error_/value_ writes
  std::condition_variable ready_cv_;
  std::unordered_map<Key, Slot, Hash> slots_;
};

}  // namespace taf::util
