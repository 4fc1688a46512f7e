#include "gc/remset.h"

namespace gcassert {

bool
RememberedSet::record(Object *src)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ++totalRecords_;
    if (!members_.insert(src).second)
        return false;
    sources_.push_back(src);
    // The latch makes the barrier's inline filter skip this source
    // until the set is cleared.
    src->setFlagsAtomic(kRememberedBit);
    return true;
}

void
RememberedSet::forEachSource(
    const std::function<void(Object *)> &visit) const
{
    for (Object *src : sources_)
        visit(src);
}

void
RememberedSet::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (Object *src : sources_)
        src->clearFlagsAtomic(kRememberedBit);
    sources_.clear();
    members_.clear();
}

} // namespace gcassert
