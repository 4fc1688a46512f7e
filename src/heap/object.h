/**
 * @file
 * The managed object model.
 *
 * Every object in the gcassert heap carries a 16-byte header followed
 * by its reference slots (word-sized, scanned by the collector) and
 * then its scalar payload. The header mirrors the layout constraints
 * the paper exploits in Jikes RVM:
 *
 *  - objects are word aligned, so the low-order bits of object
 *    pointers are free for the tracing worklist's path-recording tag
 *    (paper section 2.7);
 *  - the header has spare bits, which hold the mark bit and the
 *    per-object assertion state (dead / unshared / owned / ownee /
 *    owner) at zero space overhead (paper sections 2.3, 2.5).
 */

#ifndef GCASSERT_HEAP_OBJECT_H
#define GCASSERT_HEAP_OBJECT_H

#include <atomic>
#include <cstdint>
#include <cstring>

#include "support/logging.h"

namespace gcassert {

/** Runtime type identifier; indexes the TypeRegistry. */
using TypeId = uint32_t;

/** Reserved id meaning "no type". */
constexpr TypeId kInvalidTypeId = 0xffffffffu;

class Object;

/**
 * Header flag bits. Stored in Object::flags_; all are spare bits in
 * the sense of the paper: they occupy space the header has anyway.
 */
enum ObjectFlag : uint32_t {
    /** Set during tracing; cleared by sweep. */
    kMarkBit = 1u << 0,
    /** assert-dead was called on this object. */
    kDeadBit = 1u << 1,
    /** assert-unshared was called on this object. */
    kUnsharedBit = 1u << 2,
    /** This object is registered as an ownee of some owner. */
    kOwneeBit = 1u << 3,
    /** This object is registered as an owner. */
    kOwnerBit = 1u << 4,
    /** Per-GC: reached from its owner during the ownership phase. */
    kOwnedBit = 1u << 5,
    // Bit 6 is unused; the owner tag starts at kOwnerTagShift.
    /**
     * The object was allocated inside an active allocation region
     * (assert-alldead bracketing) and sits on a region queue.
     */
    kRegionBit = 1u << 7,
    /**
     * The object is an ownee whose owner was reclaimed; it was
     * converted to a dead assertion (it should not outlive its
     * owner), and a violation about it reports as assert-ownedby.
     */
    kOrphanBit = 1u << 8,
    /**
     * Generational mode: the object sits in the logical nursery
     * (allocated since the last collection, not yet promoted). Never
     * set outside generational mode, which is what lets the write
     * barrier's target filter cost nothing elsewhere.
     */
    kNurseryBit = 1u << 9,
    /**
     * Generational mode: this mature object holds at least one
     * recorded mature-to-nursery reference and is already in the
     * remembered set (the barrier's once-per-source latch).
     */
    kRememberedBit = 1u << 10,
    // Bit 11 is unused.
};

namespace detail {

/**
 * Global count of runtimes with write barriers armed (generational
 * mode). The inline fast path in Object::setRef loads this once; when
 * zero — every non-generational configuration — the barrier costs one
 * relaxed load and a never-taken branch.
 */
extern std::atomic<uint32_t> g_writeBarriersArmed;

inline bool
writeBarriersArmed()
{
    return g_writeBarriersArmed.load(std::memory_order_relaxed) != 0;
}

/**
 * Global count of runtimes feeding the why-alive backgraph
 * (detectors/backgraph). Unlike the remembered-set feed this one is
 * *unlatched* — the backgraph needs every reference mutation, not
 * once-per-source-per-cycle, so each non-no-op store from an armed
 * runtime takes the slow path. The cost exists only while a
 * backgraph runtime is alive; the common case stays one relaxed
 * load.
 */
extern std::atomic<uint32_t> g_trackBackgraph;

inline bool
trackingBackgraph()
{
    return g_trackBackgraph.load(std::memory_order_relaxed) != 0;
}

/**
 * Out-of-line barrier slow path (src/gc/barrier.cpp): records
 * mature-to-nursery edges in the owning runtime's remembered set and
 * feeds reference mutations to its why-alive backgraph. Reached only
 * when the inline filters fire: at most once per remembered source
 * per GC cycle, plus every mutation while a backgraph is armed.
 */
void writeBarrierSlow(Object *src, Object **slot, Object *target);

} // namespace detail

/**
 * Bits [kOwnerTagShift, 32) of the flag word hold the *owner tag*
 * of a registered ownee: 1 + the owner's index in the ownership
 * table, or 0 for none. Keeping the tag in spare header bits makes
 * the ownership phase's belongs-to-this-owner test a single compare
 * on the already-loaded flag word (the same spare-bits economy the
 * paper applies to the mark/dead/unshared state).
 */
constexpr uint32_t kOwnerTagShift = 12;

/** Maximum owners representable in the tag field. */
constexpr uint32_t kMaxOwnerTag = (1u << (32 - kOwnerTagShift)) - 1;

/**
 * A managed heap object.
 *
 * Layout: [header 16B][refs: numRefs words][scalars: scalarBytes].
 * Instances are created only by Heap::allocate; the class has no
 * constructor because the heap formats raw cells in place.
 */
class Object {
  public:
    /** Header size in bytes; reference slots start at this offset. */
    static constexpr uint32_t kHeaderBytes = 16;

    /** Bytes per reference slot. */
    static constexpr uint32_t kRefBytes = sizeof(Object *);

    /**
     * Total size of an object with the given shape, rounded up to
     * word alignment.
     */
    static uint32_t
    sizeFor(uint32_t num_refs, uint32_t scalar_bytes)
    {
        uint64_t raw = uint64_t{kHeaderBytes} +
            uint64_t{num_refs} * kRefBytes + scalar_bytes;
        return static_cast<uint32_t>((raw + 7) & ~uint64_t{7});
    }

    /** Format a raw cell as an object; called by the heap only. */
    void
    format(TypeId type_id, uint32_t num_refs, uint32_t scalar_bytes)
    {
        typeId_ = type_id;
        flags_ = 0;
        sizeBytes_ = sizeFor(num_refs, scalar_bytes);
        numRefs_ = num_refs;
        std::memset(reinterpret_cast<char *>(this) + kHeaderBytes, 0,
                    sizeBytes_ - kHeaderBytes);
    }

    TypeId typeId() const { return typeId_; }

    /** Total object footprint in bytes (header + refs + scalars). */
    uint32_t sizeBytes() const { return sizeBytes_; }

    /** Number of reference slots the collector scans. */
    uint32_t numRefs() const { return numRefs_; }

    /** @name Flag accessors
     *  @{ */
    bool testFlag(ObjectFlag f) const { return (flags_ & f) != 0; }
    void setFlag(ObjectFlag f) { flags_ |= f; }
    void clearFlag(ObjectFlag f) { flags_ &= ~static_cast<uint32_t>(f); }
    uint32_t rawFlags() const { return flags_; }
    /** @} */

    /** @name Atomic flag accessors (parallel mark phase only)
     *
     * Marker threads race on the shared flag word, so every access
     * during a parallel trace goes through these; the sequential
     * trace keeps the plain accessors above (zero overhead, and the
     * two phases never overlap — the world is stopped either way).
     *  @{ */

    /** Atomic snapshot of the flag word. */
    uint32_t
    rawFlagsAtomic() const
    {
        return std::atomic_ref<uint32_t>(
                   const_cast<uint32_t &>(flags_))
            .load(std::memory_order_relaxed);
    }

    /**
     * Atomically test-and-set the mark bit.
     * @return true when this call transitioned unmarked -> marked
     *         (the caller won the race and must scan the object);
     *         false when the object was already marked — under
     *         parallel marking the loser is by definition a second
     *         incoming reference, which is what assert-unshared
     *         detects.
     */
    bool
    tryMark()
    {
        uint32_t old = std::atomic_ref<uint32_t>(flags_).fetch_or(
            kMarkBit, std::memory_order_acq_rel);
        return (old & kMarkBit) == 0;
    }

    /** Atomically clear every flag in @p mask. */
    void
    clearFlagsAtomic(uint32_t mask)
    {
        std::atomic_ref<uint32_t>(flags_).fetch_and(
            ~mask, std::memory_order_acq_rel);
    }

    /** Atomically set every flag in @p mask (write-barrier latches:
     *  concurrent mutators race on unrelated bits of the word). */
    void
    setFlagsAtomic(uint32_t mask)
    {
        std::atomic_ref<uint32_t>(flags_).fetch_or(
            mask, std::memory_order_acq_rel);
    }

    /** @} */

    /** Convenience: the GC mark bit. */
    bool marked() const { return testFlag(kMarkBit); }

    /** Ownee's owner tag (0 = not an ownee). */
    uint32_t ownerTag() const { return flags_ >> kOwnerTagShift; }

    /** Set the owner tag, preserving the low flag bits. */
    void
    setOwnerTag(uint32_t tag)
    {
        flags_ = (flags_ & ((1u << kOwnerTagShift) - 1)) |
            (tag << kOwnerTagShift);
    }

    /** Read reference slot @p index. */
    Object *
    ref(uint32_t index) const
    {
        checkRefIndex(index);
        return refSlots()[index];
    }

    /** Write reference slot @p index.
     *
     * Every reference store funnels through here, so this is where
     * the generational write barrier hangs: when some runtime has
     * barriers armed, header-bit filters decide (without any lookup)
     * whether the store can possibly need recording — a
     * mature-to-nursery edge, or any mutation while a backgraph is
     * armed — and only then take the out-of-line slow path. Raw
     * setRef callers (tests, embedders) therefore stay sound in
     * generational mode without going through Runtime::writeRef.
     */
    void
    setRef(uint32_t index, Object *target)
    {
        checkRefIndex(index);
        Object **slot = &refSlots()[index];
        if (detail::writeBarriersArmed()) [[unlikely]] {
            // Atomic loads: a mutator may store refs while another
            // thread's collection is marking (the pre-existing
            // stop-the-world contract covers slots, not the flag
            // word, which parallel markers CAS concurrently).
            uint32_t sf = rawFlagsAtomic();
            uint32_t tf = target ? target->rawFlagsAtomic() : 0;
            bool nursery_edge = (tf & kNurseryBit) != 0 &&
                (sf & (kNurseryBit | kRememberedBit)) == 0;
            bool backgraph =
                detail::trackingBackgraph() && *slot != target;
            if (nursery_edge || backgraph)
                detail::writeBarrierSlow(this, slot, target);
        }
        *slot = target;
    }

    /** Address of reference slot @p index (for root-style scanning). */
    Object **
    refSlotAddr(uint32_t index)
    {
        checkRefIndex(index);
        return &refSlots()[index];
    }

    /** Size of the scalar payload in bytes. */
    uint32_t
    scalarBytes() const
    {
        return sizeBytes_ - kHeaderBytes - numRefs_ * kRefBytes;
    }

    /** Typed access into the scalar payload at byte offset @p off. */
    template <typename T>
    T
    scalar(uint32_t off) const
    {
        checkScalarRange(off, sizeof(T));
        T value;
        std::memcpy(&value, scalarData() + off, sizeof(T));
        return value;
    }

    /** Typed store into the scalar payload at byte offset @p off. */
    template <typename T>
    void
    setScalar(uint32_t off, T value)
    {
        checkScalarRange(off, sizeof(T));
        std::memcpy(scalarData() + off, &value, sizeof(T));
    }

    /** Raw pointer to the scalar payload. */
    char *
    scalarData()
    {
        return reinterpret_cast<char *>(this) + kHeaderBytes +
            numRefs_ * kRefBytes;
    }

    const char *
    scalarData() const
    {
        return reinterpret_cast<const char *>(this) + kHeaderBytes +
            numRefs_ * kRefBytes;
    }

  private:
    Object() = delete;

    Object **
    refSlots() const
    {
        return reinterpret_cast<Object **>(
            const_cast<char *>(reinterpret_cast<const char *>(this)) +
            kHeaderBytes);
    }

    void
    checkRefIndex(uint32_t index) const
    {
        if (index >= numRefs_)
            panic(format_("reference slot %u out of range (object has %u)",
                          index, numRefs_));
    }

    void
    checkScalarRange(uint32_t off, size_t bytes) const
    {
        if (uint64_t{off} + bytes > scalarBytes())
            panic(format_("scalar access at offset %u overruns payload of "
                          "%u bytes", off, scalarBytes()));
    }

    static std::string format_(const char *fmt, uint32_t a, uint32_t b);

    TypeId typeId_;
    uint32_t flags_;
    uint32_t sizeBytes_;
    uint32_t numRefs_;
    // Reference slots and scalar payload follow in the same cell.
};

static_assert(sizeof(Object) == Object::kHeaderBytes,
              "Object header must be exactly kHeaderBytes");

} // namespace gcassert

#endif // GCASSERT_HEAP_OBJECT_H
