/**
 * @file
 * Assertion bookkeeping counters.
 *
 * The per-object assertion state lives in object-header spare bits
 * and the ownership table; what remains to track centrally is call
 * counts and per-GC activity, which the paper quotes in its
 * evaluation (e.g. "695 calls to assert-dead and 15,553 calls to
 * assert-ownedBy", "15,274 ownee objects checked per GC").
 */

#ifndef GCASSERT_ASSERTIONS_ASSERTION_TABLE_H
#define GCASSERT_ASSERTIONS_ASSERTION_TABLE_H

#include <cstdint>
#include <string>

namespace gcassert {

/**
 * Cumulative assertion-activity counters.
 */
struct AssertionStats {
    uint64_t assertDeadCalls = 0;
    uint64_t startRegionCalls = 0;
    uint64_t assertAllDeadCalls = 0;
    uint64_t regionObjectsFlushed = 0;
    uint64_t assertInstancesCalls = 0;
    uint64_t assertVolumeCalls = 0;
    uint64_t assertUnsharedCalls = 0;
    uint64_t assertOwnedByCalls = 0;

    /** Violations reported, by kind-independent total. */
    uint64_t violationsReported = 0;

    /** Dead-asserted objects that were (correctly) reclaimed. */
    uint64_t deadAssertsSatisfied = 0;

    /** Ownee assertions satisfied (ownee died before its owner). */
    uint64_t owneeAssertsSatisfied = 0;

    /** Multi-line human-readable dump. */
    std::string toString() const;
};

} // namespace gcassert

#endif // GCASSERT_ASSERTIONS_ASSERTION_TABLE_H
