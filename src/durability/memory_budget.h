// Copyright 2026 The DOD Authors.
//
// Cooperative memory budgeting for large transient allocations.
//
// A `MemoryBudget` tracks bytes reserved against a caller-set limit. It
// answers two questions, and both answers are independent of thread count
// and interleaving, which keeps outputs and errors byte-identical:
//
//  - `FitsAlone(bytes)`: would this allocation, by itself, fit the limit?
//    A pure function of (bytes, limit). Decisions made on it (sending a
//    reduce task's columnar grouping to the sorted path) are
//    deterministic.
//
//  - `Reserve(bytes, what)`: admit the allocation. It fails only when the
//    bytes do not fit alone — with a message built from the bytes and the
//    limit, so every thread count reports the same error. Otherwise it
//    waits until the bytes fit next to the live reservations, then charges
//    them; `Release` wakes the waiters.
//
// Waiting cannot deadlock as long as every holder owns at most one
// reservation and never waits while it holds it: then some holder always
// runs to its release, and every reservation that fits alone is granted.
// Each reduce task's `TaskArena` is that holder (one reservation for id
// staging and probe buffer together, held for the task's detection).
//
// A zero limit means unlimited: Reserve never waits, accounting still runs
// so peak usage is observable. The RAII `MemoryCharge` pairs Reserve with
// Release.

#ifndef DOD_DURABILITY_MEMORY_BUDGET_H_
#define DOD_DURABILITY_MEMORY_BUDGET_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace dod {

class MemoryBudget {
 public:
  // `limit_bytes` == 0 disables enforcement (accounting still runs).
  explicit MemoryBudget(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  uint64_t limit_bytes() const { return limit_; }
  uint64_t used_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return used_;
  }
  uint64_t peak_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

  // Deterministic admission check: true iff an allocation of `bytes` fits
  // the limit on its own (see file comment).
  bool FitsAlone(uint64_t bytes) const {
    return limit_ == 0 || bytes <= limit_;
  }

  // kResourceExhausted (nothing charged) when `bytes` cannot fit alone;
  // otherwise blocks until they fit next to the live reservations and
  // charges them.
  Status Reserve(uint64_t bytes, const char* what) {
    if (!FitsAlone(bytes)) {
      return Status::ResourceExhausted(
          std::string(what) + " needs " + std::to_string(bytes) +
          " bytes, more than the whole " + std::to_string(limit_) +
          "-byte memory budget");
    }
    std::unique_lock<std::mutex> lock(mutex_);
    room_.wait(lock, [&] { return limit_ == 0 || bytes <= limit_ - used_; });
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    return Status::Ok();
  }

  void Release(uint64_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      used_ -= bytes;
    }
    room_.notify_all();
  }

 private:
  const uint64_t limit_;
  mutable std::mutex mutex_;
  std::condition_variable room_;
  uint64_t used_ = 0;
  uint64_t peak_ = 0;
};

// RAII reservation against an optional budget. Usage:
//
//   MemoryCharge charge;
//   DOD_RETURN_IF_ERROR(charge.Acquire(budget, bytes, "task arena"));
//   ... allocate ...
//
// A null budget makes Acquire a no-op that always succeeds. Acquire first
// releases any reservation the charge already holds, so a holder never
// waits while holding one. The charge is released on destruction (or
// explicit Release()).
class MemoryCharge {
 public:
  MemoryCharge() = default;
  ~MemoryCharge() { Release(); }

  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  Status Acquire(MemoryBudget* budget, uint64_t bytes, const char* what) {
    Release();
    if (budget == nullptr || bytes == 0) return Status::Ok();
    DOD_RETURN_IF_ERROR(budget->Reserve(bytes, what));
    budget_ = budget;
    bytes_ = bytes;
    return Status::Ok();
  }

  void Release() {
    if (budget_ != nullptr) budget_->Release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace dod

#endif  // DOD_DURABILITY_MEMORY_BUDGET_H_
