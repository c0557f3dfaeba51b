/**
 * @file
 * Recording persistence tests: save/load round trips, and replay of a
 * recording that went through disk.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <new>
#include <sstream>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"

namespace delorean
{
namespace
{

MachineConfig
machine(unsigned procs = 4)
{
    MachineConfig m;
    m.numProcs = procs;
    return m;
}

Recording
roundTrip(const Recording &rec)
{
    std::stringstream buffer;
    saveRecording(rec, buffer);
    return loadRecording(buffer);
}

TEST(Serialize, RoundTripPreservesLogsAndFingerprint)
{
    Workload w("sweb2005", 4, 3, WorkloadScale{20});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    const Recording copy = roundTrip(rec);

    EXPECT_EQ(copy.appName, rec.appName);
    EXPECT_EQ(copy.workloadSeed, rec.workloadSeed);
    EXPECT_EQ(copy.machine.numProcs, rec.machine.numProcs);
    EXPECT_EQ(copy.mode.mode, rec.mode.mode);
    EXPECT_EQ(copy.mode.chunkSize, rec.mode.chunkSize);

    ASSERT_EQ(copy.pi.entryCount(), rec.pi.entryCount());
    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i)
        ASSERT_EQ(copy.pi.entryAt(i), rec.pi.entryAt(i));

    ASSERT_EQ(copy.cs.size(), rec.cs.size());
    for (std::size_t p = 0; p < rec.cs.size(); ++p)
        EXPECT_EQ(copy.cs[p].entryCount(), rec.cs[p].entryCount());

    EXPECT_EQ(copy.io.totalEntries(), rec.io.totalEntries());
    EXPECT_EQ(copy.interrupts.totalEntries(),
              rec.interrupts.totalEntries());
    EXPECT_EQ(copy.dma.count(), rec.dma.count());

    EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
    EXPECT_EQ(copy.stats.retiredInstrs, rec.stats.retiredInstrs);
    EXPECT_EQ(copy.stats.totalCycles, rec.stats.totalCycles);
}

TEST(Serialize, LoadedRecordingReplaysDeterministically)
{
    Workload w("sjbb2k", 4, 3, WorkloadScale{20});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    const Recording copy = roundTrip(rec);

    ReplayPerturbation perturb;
    perturb.enabled = true;
    perturb.seed = 9;
    const ReplayOutcome out = Replayer().replay(copy, 42, perturb);
    EXPECT_TRUE(out.deterministicExact);
}

TEST(Serialize, OrderAndSizeAndPicoLogRoundTrip)
{
    for (const ModeConfig mode :
         {ModeConfig::orderAndSize(), ModeConfig::picoLog()}) {
        Workload w("radix", 4, 3, WorkloadScale::tiny());
        const Recording rec = Recorder(mode, machine()).record(w, 1);
        const Recording copy = roundTrip(rec);
        EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
        const ReplayOutcome out = Replayer().replay(copy, 5);
        EXPECT_TRUE(out.deterministicExact)
            << execModeName(mode.mode);
    }
}

TEST(Serialize, StratifiedRecordingRoundTrips)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 1;
    Workload w("barnes", 4, 3, WorkloadScale::tiny());
    const Recording rec = Recorder(mode, machine()).record(w, 1);
    const Recording copy = roundTrip(rec);
    ASSERT_EQ(copy.strata.size(), rec.strata.size());
    const ReplayOutcome out = Replayer().replay(copy, 5);
    EXPECT_TRUE(out.deterministicPerProc);
}

TEST(Serialize, CheckpointsRoundTripAndReplay)
{
    Workload w("fmm", 4, 3, WorkloadScale::tiny());
    const Recording rec = Recorder(ModeConfig::orderOnly(), machine())
                              .record(w, 1, true, {25});
    ASSERT_EQ(rec.checkpoints.size(), 1u);
    const Recording copy = roundTrip(rec);
    ASSERT_EQ(copy.checkpoints.size(), 1u);
    EXPECT_EQ(copy.checkpoints[0].gcc, rec.checkpoints[0].gcc);
    EXPECT_EQ(copy.checkpoints[0].memory.hash(),
              rec.checkpoints[0].memory.hash());

    const ReplayOutcome out =
        Replayer().replayInterval(copy, 0, w, 7);
    EXPECT_TRUE(out.deterministicExact);
}

TEST(Serialize, ContextImageIgnoresPadding)
{
    // Two contexts with equal fields, built over storage whose bytes
    // (padding included) differ, must store the same image, and the
    // image must load back to equal fields.
    alignas(ThreadContext) unsigned char zeros[sizeof(ThreadContext)];
    alignas(ThreadContext) unsigned char ones[sizeof(ThreadContext)];
    std::memset(zeros, 0x00, sizeof zeros);
    std::memset(ones, 0xff, sizeof ones);
    ThreadContext *a = new (zeros) ThreadContext;
    ThreadContext *b = new (ones) ThreadContext;
    for (ThreadContext *ctx : {a, b}) {
        ctx->proc = 3;
        ctx->acc = 0x1234;
        ctx->state = ThreadState::kCritical;
        ctx->pendingLock = true;
        ctx->pendingAccess.op = Op::kStore;
        ctx->pendingAccess.addr = 0x40;
        ctx->workPhase = 2;
        ctx->mappedSegs.set(7);
    }
    std::ostringstream out_a(std::ios::binary);
    std::ostringstream out_b(std::ios::binary);
    serialize_detail::putContext(out_a, *a);
    serialize_detail::putContext(out_b, *b);
    EXPECT_EQ(out_a.str(), out_b.str());

    std::istringstream in(out_b.str(), std::ios::binary);
    const ThreadContext back = serialize_detail::getContext(in);
    EXPECT_EQ(back.proc, 3u);
    EXPECT_EQ(back.acc, 0x1234u);
    EXPECT_EQ(back.state, ThreadState::kCritical);
    EXPECT_TRUE(back.pendingLock);
    EXPECT_EQ(back.pendingAccess.op, Op::kStore);
    EXPECT_EQ(back.pendingAccess.addr, 0x40u);
    EXPECT_EQ(back.workPhase, 2u);
    EXPECT_TRUE(back.mappedSegs.test(7));
    EXPECT_EQ(back.rng, a->rng);
    a->~ThreadContext();
    b->~ThreadContext();
}

TEST(Serialize, FileRoundTrip)
{
    Workload w("lu", 2, 3, WorkloadScale::tiny());
    MachineConfig m = machine(2);
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), m).record(w, 1);
    const std::string path = "/tmp/delorean_test_recording.bin";
    saveRecordingFile(rec, path);
    const Recording copy = loadRecordingFile(path);
    EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream buffer;
    buffer << "this is not a recording at all, sorry";
    EXPECT_THROW(loadRecording(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncated)
{
    Workload w("lu", 2, 3, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine(2)).record(w, 1);
    std::stringstream buffer;
    saveRecording(rec, buffer);
    const std::string full = buffer.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(loadRecording(cut), std::runtime_error);
}

} // namespace
} // namespace delorean
