/**
 * @file
 * Sharded-arbitration tests: partial-order PI recording (format v2
 * shard masks), the PartialOrderCursor's enablement semantics,
 * fingerprint byte-identity between total-order and partial-order
 * replay across shard counts / worker counts / modes, exact
 * degeneration at shards=1, typed rejection of v1 streams, typed
 * ConfigError rejection of invalid shard counts, archive round trips
 * of masked recordings, and the fault-injection sweep over the mask
 * section.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "sim/parallel_replay.hpp"
#include "store/archive.hpp"
#include "validate/differential.hpp"
#include "validate/fault_injector.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{
namespace
{

MachineConfig
machine(unsigned procs, unsigned shards)
{
    MachineConfig m;
    m.numProcs = procs;
    m.bulk.numArbiters = shards;
    return m;
}

Recording
recordOne(const ModeConfig &mode, unsigned procs, unsigned shards,
          const char *app = "fft", std::uint64_t checkpoint_period = 0)
{
    Workload w(app, procs, 7, WorkloadScale::tiny());
    return Recorder(mode, machine(procs, shards))
        .record(w, 1, true, {}, checkpoint_period);
}

std::string
serialized(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    return std::move(out).str();
}

// ---------------------------------------------------------------------
// PartialOrderCursor semantics
// ---------------------------------------------------------------------

TEST(PartialOrderCursor, EnablesExactlyHeadsOfProcAndShardQueues)
{
    PiLog log(2);
    log.enableMasks(2);
    log.appendWithMask(0, 0b01); // entry 0: proc 0, shard 0
    log.appendWithMask(1, 0b10); // entry 1: proc 1, shard 1
    log.appendWithMask(0, 0b11); // entry 2: proc 0, cross-shard

    PartialOrderCursor cur(log, 2, 2);
    EXPECT_EQ(cur.chunkEntryCount(), 3u);
    EXPECT_EQ(cur.chunkPosOf(0), 0u);
    EXPECT_EQ(cur.chunkPosOf(2), 2u);

    // Entries 0 and 1 touch different shards and different procs:
    // both enabled, in either order.
    EXPECT_TRUE(cur.procReady(0));
    EXPECT_TRUE(cur.procReady(1));

    // Entry 2 is blocked twice over: proc 0's program order (entry 0)
    // and shard 1's order (entry 1).
    EXPECT_EQ(cur.consumeProc(1), 1u);
    EXPECT_FALSE(cur.atEnd());
    EXPECT_TRUE(cur.procReady(0));
    EXPECT_EQ(cur.consumeProc(0), 0u);
    EXPECT_TRUE(cur.procReady(0));
    EXPECT_EQ(cur.consumeProc(0), 2u);
    EXPECT_TRUE(cur.atEnd());
}

TEST(PartialOrderCursor, DmaIsItsOwnProgramOrderQueue)
{
    PiLog log(2);
    log.enableMasks(2);
    log.appendWithMask(kDmaProcId, 0b01);
    log.appendWithMask(1, 0b10);
    log.appendWithMask(0, 0b01);

    PartialOrderCursor cur(log, 2, 2);
    // The DMA entry and proc 1's entry are unordered; proc 0's entry
    // waits on shard 0 behind the DMA.
    EXPECT_TRUE(cur.dmaReady());
    EXPECT_TRUE(cur.procReady(1));
    EXPECT_FALSE(cur.procReady(0));
    // DMA entries do not occupy fingerprint commit positions.
    EXPECT_EQ(cur.chunkEntryCount(), 2u);
    EXPECT_EQ(cur.chunkPosOf(1), 0u);
    EXPECT_EQ(cur.chunkPosOf(2), 1u);

    cur.consumeProc(kDmaProcId);
    EXPECT_TRUE(cur.procReady(0));
    EXPECT_EQ(cur.lowWatermark(), 1u);
}

TEST(PartialOrderCursor, LogOrderIsAlwaysConsumable)
{
    // Consuming strictly in log order must never block: the log's own
    // sequence is one valid linearization of the partial order.
    PiLog log(4);
    log.enableMasks(4);
    const std::uint64_t masks[] = {0b0001, 0b0011, 0b0100, 0b1111,
                                   0b0010, 0b1000, 0b0101, 0b0001};
    for (std::size_t i = 0; i < 8; ++i)
        log.appendWithMask(static_cast<ProcId>(i % 4), masks[i]);
    PartialOrderCursor cur(log, 4, 4);
    for (std::size_t i = 0; i < 8; ++i) {
        const ProcId p = log.entryAt(i);
        ASSERT_TRUE(cur.procReady(p)) << "entry " << i;
        EXPECT_EQ(cur.consumeProc(p), i);
        EXPECT_EQ(cur.lowWatermark(), i + 1);
    }
    EXPECT_TRUE(cur.atEnd());
}

// ---------------------------------------------------------------------
// Sharded recording: masks, stats, degeneration, rejection
// ---------------------------------------------------------------------

TEST(ShardedArbiter, RecordsValidMasksAndShardStats)
{
    const Recording rec = recordOne(ModeConfig::orderOnly(), 4, 4);
    ASSERT_TRUE(rec.pi.hasMasks());
    EXPECT_EQ(rec.pi.maskBits(), 4u);
    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i) {
        const std::uint64_t mask = rec.pi.maskAt(i);
        EXPECT_NE(mask, 0u) << "entry " << i;
        EXPECT_LT(mask, 16u) << "entry " << i;
    }
    // Every grant (chunk or DMA) is either shard-local or cross-shard.
    EXPECT_EQ(rec.stats.shardLocalCommits + rec.stats.crossShardCommits,
              rec.pi.entryCount());
}

TEST(ShardedArbiter, ShardOneDegeneratesToTheUnshardedMachine)
{
    // numArbiters = 1 must take the classic single-arbiter code path:
    // identical execution, identical (maskless, v1-accounted) logs,
    // byte-identical serialization vs the default machine.
    const Recording base =
        recordOne(ModeConfig::orderOnly(), 4, 1);
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    MachineConfig unsharded;
    unsharded.numProcs = 4;
    const Recording def =
        Recorder(ModeConfig::orderOnly(), unsharded).record(w, 1);
    EXPECT_FALSE(base.pi.hasMasks());
    EXPECT_EQ(serialized(base), serialized(def));
}

TEST(ShardedArbiter, InvalidShardCountsRaiseTypedConfigError)
{
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    for (const unsigned shards : {0u, 3u, 6u, 128u}) {
        MachineConfig m = machine(4, shards);
        EXPECT_THROW(
            { Recorder(ModeConfig::orderOnly(), m).record(w, 1); },
            ConfigError)
            << "shards=" << shards;
    }
}

TEST(ShardedArbiter, MaskedRecordingRoundTripsByteIdentically)
{
    const Recording rec = recordOne(ModeConfig::orderAndSize(), 4, 4);
    ASSERT_TRUE(rec.pi.hasMasks());
    const std::string first = serialized(rec);
    std::istringstream in(first);
    const Recording loaded = loadRecording(in);
    ASSERT_TRUE(loaded.pi.hasMasks());
    EXPECT_EQ(loaded.machine.bulk.numArbiters, 4u);
    EXPECT_EQ(first, serialized(loaded));
}

TEST(ShardedArbiter, PicoLogKeepsTheGlobalTokenPath)
{
    // PicoLog's predefined commit order leaves nothing for a shard
    // hierarchy to relax; the recording must stay maskless and replay
    // deterministically.
    const Recording rec = recordOne(ModeConfig::picoLog(), 4, 4);
    EXPECT_FALSE(rec.pi.hasMasks());
    const ReplayCheckResult check = checkedReplay(rec);
    EXPECT_TRUE(check.ok) << check.report.describe();
}

// ---------------------------------------------------------------------
// Replay byte-identity: shards x jobs x modes
// ---------------------------------------------------------------------

TEST(ShardedArbiter, TotalAndPartialOrderReplaysAreByteIdentical)
{
    const std::vector<std::pair<std::string, ModeConfig>> modes = {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"picolog", ModeConfig::picoLog()},
    };
    for (const auto &[label, mode] : modes) {
        for (const unsigned shards : {1u, 2u, 4u}) {
            const Recording rec = recordOne(mode, 4, shards);

            // Serial engine, partial order honored (no-op when the
            // recording is maskless).
            ReplayCheckOptions po_opts;
            const ReplayCheckResult po = checkedReplay(rec, po_opts);
            ASSERT_TRUE(po.ok) << label << " shards=" << shards << ": "
                               << po.report.describe();

            // Serial engine pinned to the logged total order.
            ReplayCheckOptions to_opts;
            to_opts.honorPartialOrder = false;
            const ReplayCheckResult to = checkedReplay(rec, to_opts);
            ASSERT_TRUE(to.ok) << label << " shards=" << shards;
            EXPECT_TRUE(po.outcome.fingerprint.matchesExact(
                to.outcome.fingerprint))
                << label << " shards=" << shards;

            // Host-parallel replayer, both orders, 1 and 4 workers.
            for (const unsigned jobs : {1u, 4u}) {
                for (const bool honor : {true, false}) {
                    ParallelReplayOptions popts;
                    popts.jobs = jobs;
                    popts.window = 4;
                    popts.honorPartialOrder = honor;
                    const ReplayCheckResult par =
                        checkedParallelReplay(rec, popts);
                    ASSERT_TRUE(par.ok)
                        << label << " shards=" << shards << " jobs="
                        << jobs << " honor=" << honor << ": "
                        << par.report.describe();
                    EXPECT_TRUE(po.outcome.fingerprint.matchesExact(
                        par.outcome.fingerprint))
                        << label << " shards=" << shards
                        << " jobs=" << jobs << " honor=" << honor;
                }
            }
        }
    }
}

TEST(ShardedArbiter, PartialOrderReplayScalesToManyCores)
{
    // 16 simulated cores, 8 shards: record, then verify both replay
    // paths reproduce the execution byte-identically.
    const Recording rec =
        recordOne(ModeConfig::orderOnly(), 16, 8, "lu");
    ASSERT_TRUE(rec.pi.hasMasks());
    const ReplayCheckResult serial = checkedReplay(rec);
    ASSERT_TRUE(serial.ok) << serial.report.describe();

    ParallelReplayOptions popts;
    popts.window = 16;
    popts.jobs = 4;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_TRUE(par.ok) << par.report.describe();
    EXPECT_TRUE(serial.outcome.fingerprint.matchesExact(
        par.outcome.fingerprint));
}

// ---------------------------------------------------------------------
// Format version
// ---------------------------------------------------------------------

// Only format v2 loads. A v1 stream (total-order, pre-sharding) is
// rejected by its version word before any section is parsed.
TEST(ShardedArbiter, Version1RecordingsRejected)
{
    const Recording rec = recordOne(ModeConfig::orderOnly(), 4, 1);
    std::string bytes = serialized(rec);
    ASSERT_EQ(bytes[8], 2); // little-endian version word after magic
    bytes[8] = 1;
    std::istringstream in(bytes);
    try {
        loadRecording(in);
        FAIL() << "a version-1 stream loaded";
    } catch (const RecordingFormatError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported recording version"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Store + validate integration
// ---------------------------------------------------------------------

TEST(ShardedArbiter, MaskedRecordingArchivesAndReadsBackIdentically)
{
    const Recording rec =
        recordOne(ModeConfig::orderOnly(), 4, 4, "fft", 40);
    ASSERT_TRUE(rec.pi.hasMasks());
    ASSERT_FALSE(rec.checkpoints.empty());

    std::ostringstream buf;
    writeArchive(rec, buf);
    const std::string bytes = std::move(buf).str();
    const ArchiveReader reader =
        ArchiveReader::fromBytes({bytes.begin(), bytes.end()});

    const Recording back = reader.readAll();
    ASSERT_TRUE(back.pi.hasMasks());
    EXPECT_EQ(serialized(back), serialized(rec));

    // Interval replay off the archive: the reconstructed interval is
    // maskless (total-order), which must load and replay cleanly.
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    Replayer replayer;
    for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
        const Recording view = reader.readInterval(i);
        EXPECT_FALSE(view.pi.hasMasks());
        const ReplayOutcome out =
            replayer.replayInterval(view, 0, w, 31 + i);
        EXPECT_TRUE(out.deterministicExact)
            << "interval from checkpoint " << i;
    }
}

TEST(ShardedArbiter, FaultSweepCoversMaskMutations)
{
    const Recording rec = recordOne(ModeConfig::orderOnly(), 4, 4);
    ASSERT_TRUE(rec.pi.hasMasks());
    const FaultSweepSummary sweep = runFaultSweep(rec, 4, 20080621);
    EXPECT_TRUE(sweep.ok()) << sweep.describe();
    EXPECT_EQ(sweep.total, 8u * 4u);
}

TEST(ShardedArbiter, DifferentialCheckerRunsShardedLegs)
{
    DifferentialJob job;
    job.app = "fft";
    job.numProcs = 4;
    job.scalePercent = 5;
    job.shards = 4;
    job.checkpointPeriod = 40;
    const DifferentialResult result = DifferentialChecker(2).check(job);
    EXPECT_TRUE(result.ok()) << result.describe();
    const DifferentialRun *oo = result.findRun("order-only");
    ASSERT_NE(oo, nullptr);
    EXPECT_TRUE(oo->partialOrder);
    EXPECT_TRUE(oo->totalOrderReplayOk);
    EXPECT_TRUE(oo->partialMatchesTotal);
}

} // namespace
} // namespace delorean
