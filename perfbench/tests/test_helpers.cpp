/**
 * @file
 * Tests of the benchmark program's measurement helpers: the tail
 * percentile rule, nearest-rank percentiles, span self time, the
 * per-layer aggregation and the seek-target mix.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "perf_support.hpp"

using namespace perfbench;

namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

SpanRecord
span(const char *name, std::int64_t start, std::int64_t end, long parent,
     long op)
{
    SpanRecord s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.op = op;
    return s;
}

} // namespace

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(40), 75.0);
    EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
    for (std::size_t n = kMinTailSamples; n <= 500; ++n) {
        const std::vector<double> v = ramp(n);
        const double t = tail(v);
        std::size_t beyond = 0;
        for (const double x : v)
            beyond += x > t ? 1 : 0;
        EXPECT_EQ(beyond, kTailBeyond) << "n=" << n;
        // No higher sample would still leave ten beyond it.
        EXPECT_EQ(t, static_cast<double>(n - kTailBeyond)) << "n=" << n;
    }
}

TEST(TailPercentile, RejectsTooFewSamples)
{
    EXPECT_THROW(tailPercentile(0), std::invalid_argument);
    EXPECT_THROW(tailPercentile(kMinTailSamples - 1), std::invalid_argument);
    EXPECT_THROW(tail(ramp(19)), std::invalid_argument);
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50), 3);
    EXPECT_EQ(percentile(v, 20), 1);
    EXPECT_EQ(percentile(v, 21), 2);
    EXPECT_EQ(percentile(v, 100), 5);
    EXPECT_EQ(median({7, 9}), 7);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(SelfTime, SubtractsChildrenOnce)
{
    // root [0,100) with children [10,30) and [20,50) (overlapping:
    // union 40) and [60,70); a grandchild [62,68) belongs to the
    // [60,70) child only.
    std::vector<SpanRecord> spans = {
        span("root", 0, 100, -1, 0),  span("a", 10, 30, 0, 0),
        span("b", 20, 50, 0, 0),      span("c", 60, 70, 0, 0),
        span("c.inner", 62, 68, 3, 0),
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 10 - 6);
    EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, IgnoresChildTimeOutsideTheParent)
{
    std::vector<SpanRecord> spans = {
        span("root", 100, 200, -1, 0),
        span("early", 50, 120, 0, 0), // covers [100,120) of the root
        span("late", 190, 260, 0, 0), // covers [190,200)
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 20 - 10);
}

TEST(Tracer, NestsSpansAndAssignsOps)
{
    Tracer t(true);
    {
        Span root(t, "record");
        {
            Span hook(t, "store.ring.hook");
        }
        Span close(t, "store.ring.close_drain");
    }
    {
        Span other(t, "seek.warm");
    }
    const std::vector<SpanRecord> &s = t.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[1].op, 0);
    EXPECT_EQ(s[3].parent, -1);
    EXPECT_EQ(s[3].op, 3);
    for (const SpanRecord &r : s)
        EXPECT_GE(r.end, r.start);
}

TEST(Tracer, DisabledKeepsNothingButStillTimes)
{
    Tracer t(false);
    Span s(t, "record");
    EXPECT_GE(s.stop(), 0.0);
    EXPECT_TRUE(t.spans().empty());
}

TEST(LayerTable, ExcludesWarmupOps)
{
    std::vector<SpanRecord> spans = {
        span("warmup", 0, 10, -1, 0),  span("record", 1, 9, 0, 0),
        span("record", 20, 30, -1, 2), span("store.ring.hook", 22, 24, 2, 2),
    };
    const auto rows = layerTable(spans, "warmup");
    ASSERT_EQ(rows.count("warmup"), 0u);
    ASSERT_EQ(rows.at("record").count, 1u);
    EXPECT_DOUBLE_EQ(rows.at("record").totalMs, 10e-6);
    EXPECT_DOUBLE_EQ(rows.at("record").selfMs, 8e-6);
    EXPECT_EQ(rows.at("store.ring.hook").count, 1u);
    EXPECT_EQ(layerTable(spans).at("record").count, 2u);
}

TEST(ChromeTrace, EmitsCompleteEvents)
{
    std::vector<SpanRecord> spans = {span("record", 1000, 3000, -1, 0)};
    const std::string json = chromeTraceJson(spans);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 2.000"), std::string::npos);
}

TEST(ShuffledPasses, VisitsEveryIndexEquallyOftenForAnySeed)
{
    for (const std::uint64_t seed : {1u, 2u, 99u}) {
        std::mt19937_64 rng(seed);
        const std::vector<std::size_t> order = shuffledPasses(5, 3, rng);
        ASSERT_EQ(order.size(), 15u);
        std::map<std::size_t, int> seen;
        for (const std::size_t i : order)
            ++seen[i];
        EXPECT_EQ(seen.size(), 5u);
        for (const auto &[i, count] : seen)
            EXPECT_EQ(count, 3) << "index " << i << " seed " << seed;
    }
}

TEST(EvenShare, CoversEveryItemOnceInNearEqualShares)
{
    const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<int> joined;
    for (int k = 0; k < 4; ++k) {
        const std::vector<int> share = evenShare(items, k, 4);
        EXPECT_GE(share.size(), 2u);
        EXPECT_LE(share.size(), 3u);
        joined.insert(joined.end(), share.begin(), share.end());
    }
    EXPECT_EQ(joined, items);
}
