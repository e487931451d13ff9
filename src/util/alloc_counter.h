// Steady-state heap-allocation counter: global operator new/delete
// interposition that counts allocations made inside explicitly marked
// regions (the NN evaluation path and whole training steps).
//
// Tests arm the counter after warmup and assert the marked regions perform
// ZERO heap allocations (ValueNetworkTest.TrainBatchSteadyStateAllocatesNothing,
// CoreFixture.WarmSearchScoringAllocatesNothing).
//
// Mechanics: src/util/alloc_counter.cpp replaces the global allocation
// operators (all C++17 forms) with thin malloc/free forwards that bump a
// process-global counter when BOTH (a) the counter is armed
// (ArmAllocCounter(true), a relaxed atomic — off by default, so production
// serving pays one relaxed load per region entry and nothing per
// allocation) and (b) the allocating thread is inside an AllocRegionScope.
// Region scopes nest and are placed in library code (ValueNetwork::TrainBatch,
// the PlanSearch scoring forward); they are inert until armed.
//
// The interposition is compiled out under AddressSanitizer / ThreadSanitizer
// (their allocators must own malloc) and under -DNEO_NO_ALLOC_HOOK;
// AllocCounterActive() reports whether counting is real so the tests can
// distinguish "zero allocations" from "counter unavailable".
#pragma once

#include <cstdint>

namespace neo::util {

/// True iff the operator-new interposition is compiled in (no sanitizers,
/// not NEO_NO_ALLOC_HOOK). When false the counters always read zero.
bool AllocCounterActive();

/// Globally enables/disables counting. Off by default.
void ArmAllocCounter(bool on);

/// Zeroes the global region-allocation counter.
void ResetRegionAllocs();

/// Allocations observed inside marked regions (all threads) while armed.
uint64_t RegionAllocs();

/// Marks the current thread as inside a counted region for the scope's
/// lifetime. Nestable; trivially cheap (one thread-local int).
class AllocRegionScope {
 public:
  AllocRegionScope();
  ~AllocRegionScope();
  AllocRegionScope(const AllocRegionScope&) = delete;
  AllocRegionScope& operator=(const AllocRegionScope&) = delete;
};

}  // namespace neo::util
