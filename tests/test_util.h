/**
 * @file
 * Shared helpers for the gcassert test suites: a fixture that builds
 * a runtime with a simple linked-node type, and graph-construction
 * conveniences.
 */

#ifndef GCASSERT_TESTS_TEST_UTIL_H
#define GCASSERT_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runtime/runtime.h"
#include "support/logging.h"

namespace gcassert {
namespace testutil {

/** Default heap budget for test runtimes: roomy, no surprise GCs. */
constexpr uint64_t kTestHeapBytes = 32ull * 1024 * 1024;

/**
 * Fixture owning a runtime with a generic "Node" type (two named
 * reference slots, 8 scalar bytes) and an "Array" type. A capture
 * sink is installed so warnings never reach stderr and can be
 * asserted on.
 */
class RuntimeTest : public ::testing::Test {
  protected:
    explicit RuntimeTest(RuntimeConfig config = defaultConfig())
        : runtime_(std::make_unique<Runtime>(config))
    {
        nodeType_ = runtime_->types()
                        .define("Node")
                        .refs({"left", "right"})
                        .scalars(8)
                        .build();
        arrayType_ = runtime_->types().define("Array").array().build();
    }

    static RuntimeConfig
    defaultConfig()
    {
        RuntimeConfig config;
        config.heap.budgetBytes = kTestHeapBytes;
        return config;
    }

    /** Allocate an unrooted node with the given tag. */
    Object *
    node(uint64_t tag = 0)
    {
        Object *obj = runtime_->allocRaw(nodeType_);
        obj->setScalar<uint64_t>(0, tag);
        return obj;
    }

    /** Allocate a rooted node. */
    Handle
    rootedNode(uint64_t tag = 0, const char *name = "test-root")
    {
        return Handle(*runtime_, node(tag), name);
    }

    /** Count live heap objects of the given type (all if invalid). */
    uint64_t
    liveCount(TypeId type = kInvalidTypeId)
    {
        uint64_t count = 0;
        runtime_->heap().forEachObject([&](Object *obj) {
            if (type == kInvalidTypeId || obj->typeId() == type)
                ++count;
        });
        return count;
    }

    /** @return true if @p obj is still allocated. */
    bool
    alive(const Object *obj)
    {
        bool found = false;
        runtime_->heap().forEachObject([&](Object *candidate) {
            if (candidate == obj)
                found = true;
        });
        return found;
    }

    /** Violations recorded so far. */
    const ViolationLog &
    violations()
    {
        return runtime_->violations();
    }

    /** Violations of one kind. */
    std::vector<Violation>
    violationsOf(AssertionKind kind)
    {
        std::vector<Violation> out;
        for (const auto &v : runtime_->violations())
            if (v.kind == kind)
                out.push_back(v);
        return out;
    }

    CaptureLogSink capture_;
    std::unique_ptr<Runtime> runtime_;
    TypeId nodeType_ = kInvalidTypeId;
    TypeId arrayType_ = kInvalidTypeId;
};

} // namespace testutil
} // namespace gcassert

#endif // GCASSERT_TESTS_TEST_UTIL_H
