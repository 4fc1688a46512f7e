#include "assertions/assertion_table.h"

#include "support/strutil.h"

namespace gcassert {

std::string
AssertionStats::toString() const
{
    std::string out;
    auto line = [&](const char *label, uint64_t value) {
        out += format("%s %llu\n", padRight(label, 28).c_str(),
                      static_cast<unsigned long long>(value));
    };
    line("assert-dead calls:", assertDeadCalls);
    line("start-region calls:", startRegionCalls);
    line("assert-alldead calls:", assertAllDeadCalls);
    line("region objects flushed:", regionObjectsFlushed);
    line("assert-instances calls:", assertInstancesCalls);
    line("assert-volume calls:", assertVolumeCalls);
    line("assert-unshared calls:", assertUnsharedCalls);
    line("assert-ownedby calls:", assertOwnedByCalls);
    line("violations reported:", violationsReported);
    line("dead asserts satisfied:", deadAssertsSatisfied);
    line("ownee asserts satisfied:", owneeAssertsSatisfied);
    return out;
}

} // namespace gcassert
