#include "heap/block.h"

#include <cstring>
#include <new>

namespace gcassert {

namespace {

/** Free cells link through their first word. */
struct FreeCell {
    void *next;
};

} // namespace

Block::Block(uint32_t cell_bytes)
    // operator new[] guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__
    // (16 on x86-64), which satisfies the word alignment the tagged
    // worklist pointers rely on.
    : memory_(new char[kBlockBytes]),
      cellBytes_(cell_bytes),
      numCells_(static_cast<uint32_t>(kBlockBytes / cell_bytes)),
      liveCells_(0),
      freeHead_(nullptr),
      usedBits_((numCells_ + 63) / 64, 0)
{
    if (cell_bytes < sizeof(FreeCell) || cell_bytes % 8 != 0)
        panic("Block cell size must be a word multiple >= 8");
    // Thread all cells onto the free list in address order so early
    // allocations are contiguous (friendlier to the cache and to
    // deterministic tests).
    for (uint32_t i = numCells_; i > 0; --i) {
        char *cell = memory_.get() + size_t{i - 1} * cellBytes_;
        reinterpret_cast<FreeCell *>(cell)->next = freeHead_;
        freeHead_ = cell;
    }
}

Block::~Block() = default;

void *
Block::allocateCell()
{
    if (lazyPending_)
        finishLazySweep();
    if (!freeHead_)
        return nullptr;
    void *cell = freeHead_;
    freeHead_ = reinterpret_cast<FreeCell *>(cell)->next;
    ++liveCells_;
    setUsedBit(cellIndexOf(cell));
    return cell;
}

bool
Block::contains(const void *p) const
{
    const char *c = static_cast<const char *>(p);
    return c >= memory_.get() && c < memory_.get() + kBlockBytes;
}

bool
Block::isAllocatedCell(const void *p) const
{
    if (!contains(p))
        return false;
    size_t offset = static_cast<const char *>(p) - memory_.get();
    return offset % cellBytes_ == 0 &&
           usedBit(static_cast<uint32_t>(offset / cellBytes_));
}

uint32_t
Block::cellIndexOf(const void *p) const
{
    size_t offset = static_cast<const char *>(p) - memory_.get();
    return static_cast<uint32_t>(offset / cellBytes_);
}

void
Block::pushFreeCell(void *cell)
{
    reinterpret_cast<FreeCell *>(cell)->next = freeHead_;
    freeHead_ = cell;
}

uint64_t
Block::releaseCell(Object *obj)
{
    clearUsedBit(cellIndexOf(obj));
    pushFreeCell(obj);
    --liveCells_;
    return cellBytes_;
}

void
Block::finishLazySweep()
{
    if (!lazyPending_)
        return;
    // Rebuild the entire free list from the used-bit complement in
    // ascending address order: the block's free cells end up in the
    // same order a freshly swept eager block would hand them out,
    // which keeps allocation addresses (and thus test outcomes)
    // independent of when the finish happens.
    void *head = nullptr;
    FreeCell *tail = nullptr;
    for (uint32_t cell = 0; cell < numCells_; ++cell) {
        if (usedBit(cell)) {
            // Atomic: with TLABs this runs on one mutator while
            // another's write barrier may latch kRememberedBit into
            // the same header word; a plain read-modify-write here
            // could drop that latch.
            objectAt(cell)->clearFlagsAtomic(kMarkBit);
            continue;
        }
        auto *fc = reinterpret_cast<FreeCell *>(objectAt(cell));
        fc->next = nullptr;
        if (tail)
            tail->next = fc;
        else
            head = fc;
        tail = fc;
    }
    freeHead_ = head;
    lazyPending_ = false;
}

void
Block::forEachObject(const std::function<void(Object *)> &visit) const
{
    for (uint32_t word = 0; word < usedBits_.size(); ++word) {
        uint64_t bits = usedBits_[word];
        while (bits) {
            uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            uint32_t cell = word * 64 + bit;
            visit(objectAt(cell));
        }
    }
}

} // namespace gcassert
