/**
 * @file
 * Tests for the arbiter commit conflict check — the summary precheck
 * counters must track the disambiguation mode, and a Bloom-signature
 * recording must replay deterministically — and for the epoch-cleared
 * flat maps behind the engine's hot path, which must behave like
 * their straightforward reference counterparts under churn.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/word_map.hpp"
#include "core/recorder.hpp"
#include "memory/memory_state.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;

Recording
recordSmall(const char *app, bool exact_disambiguation)
{
    MachineConfig machine;
    machine.bulk.exactDisambiguation = exact_disambiguation;
    const Workload workload(app, machine.numProcs, kSeed,
                            WorkloadScale{3});
    return Recorder(ModeConfig::orderOnly(), machine).record(workload, 7);
}

TEST(CommitFastPath, FilteredRecordingReplaysDeterministically)
{
    const Recording rec = recordSmall("fft", false);
    const ReplayOutcome out = Replayer().replay(rec, /*env_seed=*/99);
    EXPECT_TRUE(out.deterministicExact);
}

// Exact line-set disambiguation never consults the signatures, so the
// summary precheck counters stay 0; under Bloom signatures every
// running pair goes through the precheck.
TEST(CommitFastPath, SummaryCountersOnlyUnderSignatures)
{
    const Recording exact = recordSmall("radix", true);
    EXPECT_EQ(exact.stats.sigSummaryRejects, 0u);
    EXPECT_EQ(exact.stats.sigSummaryHits, 0u);
    EXPECT_GT(exact.stats.conflictSweeps, 0u);

    const Recording bloom = recordSmall("radix", false);
    EXPECT_GT(bloom.stats.sigSummaryHits, 0u);
    EXPECT_GT(bloom.stats.conflictSweeps, 0u);
}

// WordMap's epoch clear must make the map indistinguishable from a
// fresh one, across many clear cycles and across growth.
TEST(WordMap, EpochClearAndGrowthMatchReference)
{
    Xoshiro256ss rng(21);
    WordMap map;
    for (unsigned cycle = 0; cycle < 50; ++cycle) {
        std::unordered_map<Addr, std::uint64_t> ref;
        // Vary the population so some cycles force growth while
        // earlier epochs' slots are still physically present.
        const unsigned inserts =
            10 + static_cast<unsigned>(rng.next() % 3000);
        for (unsigned i = 0; i < inserts; ++i) {
            const Addr key = rng.next() % 2048;
            const std::uint64_t value = rng.next();
            map[key] = value;
            ref[key] = value;
        }
        ASSERT_EQ(map.size(), ref.size());
        for (const auto &[key, value] : ref) {
            const std::uint64_t *found = map.find(key);
            ASSERT_NE(found, nullptr);
            ASSERT_EQ(*found, value);
        }
        // Keys from the previous epoch must read as absent.
        for (unsigned probe = 0; probe < 100; ++probe) {
            const Addr key = rng.next() % 4096;
            ASSERT_EQ(map.contains(key), ref.count(key) != 0);
        }
        map.clear();
        ASSERT_TRUE(map.empty());
        ASSERT_EQ(map.find(rng.next() % 2048), nullptr);
    }
}

TEST(WordMap, OperatorBracketDefaultsToZero)
{
    WordMap map;
    EXPECT_EQ(map[42], 0u);
    map[42] += 7;
    EXPECT_EQ(map[42], 7u);
    map.clear();
    EXPECT_EQ(map[42], 0u);
}

// The epoch counter is 32-bit; when clear() wraps it back to the
// starting epoch, the wraparound hard reset must keep entries from
// 2^32 clears ago dead. Without forceEpochForTest this would need
// four billion clear() calls to reach.
TEST(WordMap, EpochWraparoundHardReset)
{
    WordMap map;
    map[100] = 1; // written under the initial epoch (1)
    map[200] = 2;

    map.forceEpochForTest(0xFFFFFFFFu);
    // Entries from other epochs read as absent...
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(100));
    map[300] = 3; // written under epoch 0xFFFFFFFF
    EXPECT_EQ(map.size(), 1u);

    // ...and the wrapping clear() lands back on the *initial* epoch,
    // where keys 100/200 were written: only the hard reset keeps
    // their slots from coming back to life.
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(100));
    EXPECT_FALSE(map.contains(200));
    EXPECT_FALSE(map.contains(300));
    EXPECT_EQ(map.find(100), nullptr);

    // The map keeps working normally after the wrap.
    map[100] = 7;
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map[100], 7u);
    map.clear();
    EXPECT_FALSE(map.contains(100));
}

TEST(WordMap, GrowthUnderForcedEpochKeepsEntries)
{
    WordMap map;
    map.forceEpochForTest(0xFFFFFFF0u);
    // Enough inserts to force at least one growth rehash.
    for (Addr k = 0; k < 1000; ++k)
        map[k] = k * 3;
    ASSERT_EQ(map.size(), 1000u);
    for (Addr k = 0; k < 1000; ++k) {
        const std::uint64_t *found = map.find(k);
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(*found, k * 3);
    }
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(0));
}

// MemoryState's open-addressed table erases entries when a word is
// restored to its deterministic initial value; randomized churn must
// match a reference model, exercising backward-shift deletion.
TEST(MemoryState, RandomChurnMatchesReference)
{
    Xoshiro256ss rng(22);
    MemoryState mem;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (unsigned step = 0; step < 50000; ++step) {
        // Small key range so stores, overwrites and resets to the
        // initial value (deletions) all happen often and cluster.
        const Addr addr = (rng.next() % 1500) * 8;
        if (rng.next() % 4 == 0) {
            mem.store(addr, MemoryState::initValue(addr));
            ref.erase(addr);
        } else {
            const std::uint64_t value = rng.next();
            mem.store(addr, value);
            ref[addr] = value;
        }
        if (step % 64 == 0) {
            const Addr probe = (rng.next() % 1500) * 8;
            const auto it = ref.find(probe);
            const std::uint64_t expect = it != ref.end()
                                             ? it->second
                                             : MemoryState::initValue(probe);
            ASSERT_EQ(mem.load(probe), expect);
        }
    }
    ASSERT_EQ(mem.population(), ref.size());
    for (const auto &[addr, value] : ref)
        ASSERT_EQ(mem.load(addr), value);

    // forEachWord must visit exactly the live entries.
    std::size_t visited = 0;
    mem.forEachWord([&](Addr addr, std::uint64_t value) {
        ++visited;
        const auto it = ref.find(addr);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(it->second, value);
    });
    EXPECT_EQ(visited, ref.size());
}

} // namespace
} // namespace delorean