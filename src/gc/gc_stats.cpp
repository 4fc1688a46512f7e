#include "gc/gc_stats.h"

#include "support/json.h"
#include "support/strutil.h"

namespace gcassert {

void
GcStats::reset()
{
    *this = GcStats{};
}

std::string
GcStats::toString() const
{
    std::string out;
    out += format("collections:        %llu\n",
                  static_cast<unsigned long long>(collections));
    out += format("objects marked:     %llu\n",
                  static_cast<unsigned long long>(objectsMarked));
    out += format("objects swept:      %llu\n",
                  static_cast<unsigned long long>(objectsSwept));
    out += format("bytes swept:        %s\n",
                  humanBytes(bytesSwept).c_str());
    out += format("ownee checks:       %llu (last GC: %llu)\n",
                  static_cast<unsigned long long>(owneeChecks),
                  static_cast<unsigned long long>(owneeChecksLastGc));
    out += format("violations:         %llu\n",
                  static_cast<unsigned long long>(violations));
    if (parallelMarkPhases > 0 || pathDowngrades > 0) {
        out += format("parallel marks:     %llu (steals: %llu, path "
                      "downgrades: %llu)\n",
                      static_cast<unsigned long long>(parallelMarkPhases),
                      static_cast<unsigned long long>(markSteals),
                      static_cast<unsigned long long>(pathDowngrades));
    }
    if (parallelSweepPhases > 0) {
        out += format("parallel sweeps:    %llu\n",
                      static_cast<unsigned long long>(parallelSweepPhases));
    }
    if (lazySweepGcs > 0) {
        out += format("lazy sweeps:        %llu (blocks finished at GC: "
                      "%llu, finish time: %.3f ms)\n",
                      static_cast<unsigned long long>(lazySweepGcs),
                      static_cast<unsigned long long>(
                          lazyBlocksFinishedAtGc),
                      lazyFinishPhase.elapsedSeconds() * 1e3);
    }
    if (minorCollections > 0) {
        out += format("minor collections:  %llu (promoted: %llu, swept: "
                      "%llu / %s, remset roots: %llu)\n",
                      static_cast<unsigned long long>(minorCollections),
                      static_cast<unsigned long long>(nurseryPromoted),
                      static_cast<unsigned long long>(nurserySweptObjects),
                      humanBytes(nurserySweptBytes).c_str(),
                      static_cast<unsigned long long>(remsetSourcesScanned));
        out += format("minor gc time:      %.3f ms\n",
                      minorGc.elapsedSeconds() * 1e3);
    }
    out += format("gc time:            %.3f ms\n",
                  totalGc.elapsedSeconds() * 1e3);
    out += format("  ownership phase:  %.3f ms\n",
                  ownershipPhase.elapsedSeconds() * 1e3);
    out += format("  trace phase:      %.3f ms\n",
                  tracePhase.elapsedSeconds() * 1e3);
    out += format("  sweep phase:      %.3f ms\n",
                  sweepPhase.elapsedSeconds() * 1e3);
    out += format("  finish phase:     %.3f ms\n",
                  finishPhase.elapsedSeconds() * 1e3);
    return out;
}

std::string
GcStats::toJson() const
{
    JsonWriter w;
    w.beginObject()
        .field("collections", collections)
        .field("objectsMarked", objectsMarked)
        .field("objectsSwept", objectsSwept)
        .field("bytesSwept", bytesSwept)
        .field("owneeChecks", owneeChecks)
        .field("owneeChecksLastGc", owneeChecksLastGc)
        .field("violations", violations)
        .field("lastLiveObjects", lastLiveObjects)
        .field("lastLiveBytes", lastLiveBytes)
        .field("maxWorklistDepth", maxWorklistDepth)
        .field("parallelMarkPhases", parallelMarkPhases)
        .field("markSteals", markSteals)
        .field("pathDowngrades", pathDowngrades)
        .field("parallelSweepPhases", parallelSweepPhases)
        .field("lazySweepGcs", lazySweepGcs)
        .field("lazyBlocksFinishedAtGc", lazyBlocksFinishedAtGc)
        .field("minorCollections", minorCollections)
        .field("nurseryPromoted", nurseryPromoted)
        .field("nurserySweptObjects", nurserySweptObjects)
        .field("nurserySweptBytes", nurserySweptBytes)
        .field("nurseryPromotedAtFullGc", nurseryPromotedAtFullGc)
        .field("remsetSourcesScanned", remsetSourcesScanned)
        .field("totalGcNanos", totalGc.elapsedNanos())
        .field("ownershipPhaseNanos", ownershipPhase.elapsedNanos())
        .field("tracePhaseNanos", tracePhase.elapsedNanos())
        .field("sweepPhaseNanos", sweepPhase.elapsedNanos())
        .field("finishPhaseNanos", finishPhase.elapsedNanos())
        .field("lazyFinishPhaseNanos", lazyFinishPhase.elapsedNanos())
        .field("minorGcNanos", minorGc.elapsedNanos())
        .endObject();
    return w.str();
}

} // namespace gcassert
