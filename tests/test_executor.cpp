/**
 * @file
 * Process-wide executor tests: every task runs once, batches reuse the
 * same workers, failures rethrow by index and leave the executor
 * usable, width 1 runs inline, nested batches and posts stay within
 * the outer call's width, and no layer creates threads per call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "core/delorean.hpp"
#include "sim/parallel_replay.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

namespace delorean
{
namespace
{

TEST(Executor, RunsEveryTaskExactlyOnce)
{
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i)
        tasks.push_back([&hits, i] { ++hits[i]; });
    Executor::run(tasks, 4);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(Executor, ReusableAcrossManyBatches)
{
    std::atomic<int> total{0};
    for (int batch = 0; batch < 50; ++batch) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 7; ++i)
            tasks.push_back([&total] { ++total; });
        Executor::run(tasks, 4);
    }
    EXPECT_EQ(total.load(), 50 * 7);
}

TEST(Executor, RethrowsTaskException)
{
    for (const unsigned width : {1u, 4u}) {
        std::atomic<int> ran{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 16; ++i)
            tasks.push_back([&ran, i] {
                ++ran;
                if (i == 9 || i == 12)
                    throw std::runtime_error("task " + std::to_string(i)
                                             + " failed");
            });
        try {
            Executor::run(tasks, width);
            ADD_FAILURE() << "no exception at width " << width;
        } catch (const std::runtime_error &e) {
            // The lowest-index failure, whatever finished first.
            EXPECT_STREQ(e.what(), "task 9 failed") << "width " << width;
        }
        EXPECT_EQ(ran.load(), 16) << "width " << width;

        // The executor survives a failed batch.
        std::atomic<int> after{0};
        std::vector<std::function<void()>> next;
        next.push_back([&after] { ++after; });
        next.push_back([&after] { ++after; });
        Executor::run(next, width);
        EXPECT_EQ(after.load(), 2) << "width " << width;
    }
}

TEST(Executor, SingleJobRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    int ran = 0;
    bool on_caller = true;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([&] {
            ++ran;
            on_caller = on_caller && std::this_thread::get_id() == caller;
        });
    Executor::run(tasks, 1);
    EXPECT_EQ(ran, 3);
    EXPECT_TRUE(on_caller);
}

TEST(Executor, PostRunsAndRethrowsOnWait)
{
    std::atomic<int> ran{0};
    Executor::Handle ok = Executor::post([&ran] { ++ran; }, 1);
    ok.wait();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_TRUE(ok.ready());

    Executor::Handle bad =
        Executor::post([] { throw std::runtime_error("post failed"); }, 1);
    EXPECT_THROW(bad.wait(), std::runtime_error);
    EXPECT_TRUE(bad.ready());
}

TEST(Executor, PostFromAFullBatchRunsOnItsWaiter)
{
    // Both threads of a 2-wide batch are busy when they post (the
    // barriers hold each task until the other is there), so no worker
    // may take the posts: each runs on the task that waits for it.
    std::atomic<int> arrived{0};
    std::atomic<int> posted{0};
    std::atomic<int> on_waiter{0};
    const auto meet = [](std::atomic<int> &count) {
        ++count;
        while (count.load() < 2)
            std::this_thread::yield();
    };
    std::vector<std::function<void()>> tasks(2, [&] {
        const std::thread::id self = std::this_thread::get_id();
        meet(arrived);
        Executor::Handle h = Executor::post([&on_waiter, self] {
            if (std::this_thread::get_id() == self)
                ++on_waiter;
        }, 1);
        meet(posted);
        EXPECT_TRUE(h.ready()); // seatless: only its waiter can run it
        h.wait();
    });
    Executor::run(tasks, 2);
    EXPECT_EQ(on_waiter.load(), 2);
}

TEST(Executor, NestedBatchesAndPostsStayWithinOuterWidth)
{
    // Every leaf records how many leaves run at that moment. The outer
    // batch is 4 wide; each outer task posts a leaf, runs a 4-wide
    // inner batch and waits on the post. Without one budget for the
    // whole tree, 4 x 4 inner leaves plus the posts could run at once.
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::atomic<int> leaves{0};
    const auto leaf = [&] {
        const int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --running;
        ++leaves;
    };
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 4; ++i)
        outer.push_back([&leaf] {
            Executor::Handle post = Executor::post(leaf, 4);
            std::vector<std::function<void()>> inner(4, leaf);
            Executor::run(inner, 4);
            post.wait();
        });
    Executor::run(outer, 4);
    EXPECT_EQ(leaves.load(), 4 * 5);
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), 4);
}

TEST(Executor, WideRequestSpawnsOnlyWhatTheBatchCanUse)
{
    const std::size_t before = Executor::workers();
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks(4, [&ran] { ++ran; });
    Executor::run(tasks, 1u << 20);
    EXPECT_EQ(ran.load(), 4);
    EXPECT_LE(Executor::workers(), std::max<std::size_t>(before, 3));
}

TEST(Executor, NoThreadPerCallAcrossLayers)
{
    MachineConfig machine;
    machine.numProcs = 4;
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderAndSize(), machine).record(w, 1, true, {},
                                                             20);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const ArchiveIoOptions io{4, true};
    const std::string dir = testing::TempDir() + "executor_ring";
    ParallelReplayOptions popts;
    popts.jobs = 4;

    const auto round = [&] {
        std::ostringstream out(std::ios::binary);
        writeArchive(rec, out, io);
        const std::string s = std::move(out).str();
        const ArchiveReader reader = ArchiveReader::fromBytes(
            std::vector<std::uint8_t>(s.begin(), s.end()), io);
        EXPECT_TRUE(reader.readAll().fingerprint.matchesExact(
            rec.fingerprint));

        std::filesystem::remove_all(dir);
        RingOptions ropts;
        ropts.checkpointPeriod = 20;
        ropts.io = io;
        RingArchiveWriter ring(dir, ropts);
        ring.onCheckpoint(rec); // posts a flush
        ring.close(rec);

        const ReplayOutcome out2 = ParallelReplayer(popts).replay(rec, w);
        EXPECT_TRUE(out2.fingerprint.matchesExact(rec.fingerprint));
    };
    round();
    const std::size_t after_first = Executor::workers();
    for (int i = 1; i < 50; ++i)
        round();
    EXPECT_EQ(Executor::workers(), after_first);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace delorean
