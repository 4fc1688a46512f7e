#include "runtime/config.h"

#include "support/env.h"

namespace gcassert {

// Every default below caches the environment on first read (first
// use wins) and parses through the shared validating envUint(): a
// malformed value warns once and falls back to the documented
// default instead of silently becoming 0.

uint32_t
defaultMarkThreads()
{
    static const uint32_t threads = static_cast<uint32_t>(
        envUint("GCASSERT_MARK_THREADS", 1));
    return threads ? threads : 1;
}

uint32_t
defaultSweepThreads()
{
    static const uint32_t threads = static_cast<uint32_t>(
        envUint("GCASSERT_SWEEP_THREADS", 1));
    return threads ? threads : 1;
}

bool
defaultLazySweep()
{
    static const bool lazy = envUint("GCASSERT_LAZY_SWEEP", 0) != 0;
    return lazy;
}

bool
defaultTlabEnabled()
{
    static const bool tlab = envUint("GCASSERT_TLAB", 0) != 0;
    return tlab;
}

bool
defaultGenerational()
{
    static const bool generational =
        envUint("GCASSERT_GENERATIONAL", 0) != 0;
    return generational;
}

uint32_t
defaultNurseryKb()
{
    static const uint32_t kb = static_cast<uint32_t>(
        envUint("GCASSERT_NURSERY_KB", 4096));
    return kb ? kb : 4096;
}

bool
defaultBackgraph()
{
    static const bool backgraph =
        envUint("GCASSERT_BACKGRAPH", 0) != 0;
    return backgraph;
}

uint32_t
defaultBackgraphInDegreeCap()
{
    static const uint32_t cap = static_cast<uint32_t>(
        envUint("GCASSERT_BACKGRAPH_INDEGREE_CAP", 8));
    return cap ? cap : 8;
}

uint32_t
defaultBackgraphWindow()
{
    static const uint32_t window = static_cast<uint32_t>(
        envUint("GCASSERT_BACKGRAPH_WINDOW", 3));
    return window ? window : 3;
}

RuntimeConfig
RuntimeConfig::base(uint64_t heap_bytes)
{
    RuntimeConfig config;
    config.heap.budgetBytes = heap_bytes;
    config.infrastructure = false;
    config.recordPaths = false;
    return config;
}

RuntimeConfig
RuntimeConfig::infra(uint64_t heap_bytes)
{
    RuntimeConfig config;
    config.heap.budgetBytes = heap_bytes;
    config.infrastructure = true;
    config.recordPaths = true;
    return config;
}

RuntimeConfig
RuntimeConfig::parallel(uint64_t heap_bytes, uint32_t threads)
{
    RuntimeConfig config;
    config.heap.budgetBytes = heap_bytes;
    config.infrastructure = true;
    config.recordPaths = false;
    config.markThreads = threads;
    return config;
}

} // namespace gcassert
