/**
 * @file
 * Assertion-violation records.
 *
 * When the collector detects a violated assertion it produces a
 * Violation carrying the assertion kind, a message, and — for
 * violations detected during tracing — the complete path through the
 * heap from a root to the offending object, exactly as in the
 * paper's Figure 1.
 */

#ifndef GCASSERT_ASSERTIONS_VIOLATION_H
#define GCASSERT_ASSERTIONS_VIOLATION_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace gcassert {

/** The assertion kinds the system supports. */
enum class AssertionKind {
    /** assert-dead: object should have been reclaimed. */
    Dead,
    /** assert-alldead: region allocation should have been reclaimed. */
    AllDead,
    /** assert-instances: too many live instances of a type. */
    Instances,
    /** assert-volume: live instances of a type exceed a byte budget. */
    Volume,
    /** assert-unshared: more than one incoming pointer. */
    Unshared,
    /** assert-ownedby: ownee not reachable through its owner. */
    OwnedBy,
    /**
     * Improper use of assert-ownedby detected at check time (owner
     * regions overlap), reported as a warning per section 2.5.2.
     */
    OwnershipMisuse,
    /**
     * A stop-the-world pause exceeded the configured SLO budget
     * (GCASSERT_PAUSE_BUDGET_US). Context-only: reported through the
     * same funnel for provenance, never forced or part of any
     * assertion verdict.
     */
    PauseSlo,
    /**
     * Backgraph growing-leak / find-leak report: an allocation
     * site's root-path height or survivor count grew monotonically
     * across the configured window of full collections. Context-only
     * (detectors/backgraph), never part of any assertion verdict.
     */
    LeakGrowth,
    /**
     * Staleness-detector report: an object went unread for the
     * configured number of collections (detectors/staleness),
     * funneled through the engine for provenance. Context-only.
     */
    Staleness,
    /**
     * Cork-style type-growth report: a type's live volume grew
     * across the sampling window (detectors/cork). Context-only.
     */
    TypeGrowth,
};

/** Short name for an assertion kind ("assert-dead" etc.). */
const char *assertionKindName(AssertionKind kind);

/**
 * True for the context-only report kinds (PauseSlo, LeakGrowth,
 * Staleness, TypeGrowth): findings routed through the violation
 * funnel for provenance that are never part of any assertion
 * verdict. Differential harnesses and exact verdict counts exclude
 * them.
 */
bool assertionKindContextOnly(AssertionKind kind);

/** One hop of a heap path in a report. */
struct PathEntry {
    /** Type name of the object at this hop. */
    std::string typeName;
    /** Object address (stable: the heap is non-moving). */
    const void *address = nullptr;
};

/**
 * A reported assertion violation.
 */
struct Violation {
    AssertionKind kind = AssertionKind::Dead;

    /** Human-readable description of what went wrong. */
    std::string message;

    /** Type name of the offending object ("" when not applicable). */
    std::string offendingType;

    /** Root or owner the path starts from ("" when no path). */
    std::string rootName;

    /** Root-to-object path; empty when unavailable (e.g. instances). */
    std::vector<PathEntry> path;

    /** Collection number (1-based) in which this was detected. */
    uint64_t gcNumber = 0;

    /**
     * Address of the offending object (stable: the heap is
     * non-moving), nullptr for type-level violations
     * (instances/volume) where no single object offends.
     */
    const void *offendingAddress = nullptr;

    /**
     * Provenance context attached by the telemetry layer's violation
     * observer (heap snapshot, region/nursery info, top census rows)
     * as a verbatim JSON object; empty when telemetry is off.
     */
    std::string provenanceJson;

    /**
     * Render in the style of the paper's Figure 1:
     *
     *   Warning: an object that was asserted dead is reachable.
     *   Type: Order
     *   Path to object:
     *   Company -> Object[] -> ... -> Order
     */
    std::string toString() const;

    /**
     * Full machine-readable report: kind, message, type, root, path,
     * GC number, offending address, and the provenance object when
     * present — all through the shared JSON writer.
     */
    std::string toJson() const;
};

/**
 * The engine's record of every violation reported. A deque, so the
 * record grows in small chunks: no doubling step in memory and no
 * copy of the whole record when it grows, and references to earlier
 * entries stay valid.
 */
using ViolationLog = std::deque<Violation>;

} // namespace gcassert

#endif // GCASSERT_ASSERTIONS_VIOLATION_H
