/**
 * @file
 * Ring archive (src/store/ring): always-on recording into a rotating
 * segmented directory. Byte-compatibility with the batch container,
 * disk-budget eviction, the bounded replay-start-lag contract, and
 * crash-consistent recovery from torn tails, gaps and stale indices.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <sstream>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"

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

ReplayPerturbation
perturb(std::uint64_t seed)
{
    ReplayPerturbation p;
    p.enabled = true;
    p.seed = seed;
    return p;
}

std::vector<std::pair<std::string, ModeConfig>>
allModes()
{
    ModeConfig stratified = ModeConfig::orderOnly();
    stratified.stratifyChunksPerProc = 4;
    return {
        {"OrderAndSize", ModeConfig::orderAndSize()},
        {"OrderOnly", ModeConfig::orderOnly()},
        {"OrderOnlyStratified", stratified},
        {"PicoLog", ModeConfig::picoLog()},
    };
}

std::string
savedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

std::vector<std::uint8_t>
archiveBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    writeArchive(rec, out);
    const std::string s = std::move(out).str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** Fresh scratch ring directory under the test temp dir. */
std::string
ringDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "ring_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

Recording
record(const ModeConfig &mode, const std::string &app,
       std::uint64_t period, RingArchiveWriter *writer = nullptr)
{
    Workload w(app, 4, 9, WorkloadScale::tiny());
    Recorder recorder(mode, machine());
    if (!writer)
        return recorder.record(w, 1, true, {}, period);
    return recorder.record(w, 1, true, {}, period,
                           [writer](const Recording &r) {
                               writer->onCheckpoint(r);
                           });
}

/** Path of the newest (largest-id) segment file in @p dir. */
std::string
newestSegmentPath(const std::string &dir)
{
    std::string best;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0
            && (best.empty()
                || name > std::filesystem::path(best)
                              .filename()
                              .string()))
            best = entry.path().string();
    }
    return best;
}

TEST(Ring, OptionsRejectInfeasibleConfigs)
{
    RingOptions opts;
    opts.checkpointPeriod = 0;
    EXPECT_THROW(opts.validate(), ConfigError);

    opts = RingOptions{};
    opts.budgetBytes = 0;
    EXPECT_THROW(opts.validate(), ConfigError);

    // T < 2P: no checkpoint placement can bound the replay-start lag.
    opts = RingOptions{};
    opts.checkpointPeriod = 50;
    opts.maxReplayLag = 99;
    EXPECT_THROW(opts.validate(), ConfigError);
    EXPECT_THROW(RingArchiveWriter(ringDir("infeasible"), opts),
                 ConfigError);

    // T == 2P is the tightest feasible bound; 0 resolves to it.
    opts.maxReplayLag = 100;
    EXPECT_NO_THROW(opts.validate());
    opts.maxReplayLag = 0;
    EXPECT_EQ(opts.resolvedLag(), 100u);
    EXPECT_NO_THROW(opts.validate());
}

TEST(Ring, CleanRoundTripMatchesBatchArchiveAllModes)
{
    // With a budget large enough to evict nothing, a cleanly closed
    // ring is just the batch archive in directory clothing: readAll
    // and every interval view must be byte-identical.
    for (const auto &[mode_name, mode] : allModes()) {
        const std::string dir = ringDir("clean_" + mode_name);
        RingOptions opts;
        opts.budgetBytes = 1u << 30;
        opts.checkpointPeriod = 20;
        RingArchiveWriter writer(dir, opts);
        const Recording rec = record(mode, "radix", 20, &writer);
        writer.close(rec);
        EXPECT_TRUE(writer.closed());
        ASSERT_GE(rec.checkpoints.size(), 2u) << mode_name;

        const RingWriterStats stats = writer.stats();
        EXPECT_EQ(stats.segmentsCut, rec.checkpoints.size() + 1);
        EXPECT_EQ(stats.segmentsEvicted, 0u);
        EXPECT_LE(stats.worstStartLag, opts.resolvedLag())
            << mode_name;

        ASSERT_TRUE(RingArchiveReader::looksLikeRing(dir));
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        EXPECT_TRUE(ring.recovery().usedIndex) << mode_name;
        EXPECT_TRUE(ring.recovery().clean) << mode_name;
        EXPECT_EQ(ring.recovery().droppedSegments, 0u);
        EXPECT_EQ(ring.appName(), "radix");
        EXPECT_EQ(ring.checkpointCount(), rec.checkpoints.size());

        EXPECT_EQ(savedBytes(ring.readAll()), savedBytes(rec))
            << mode_name;

        const ArchiveReader batch =
            ArchiveReader::fromBytes(archiveBytes(rec));
        for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
            EXPECT_EQ(ring.checkpointAt(i).gcc,
                      batch.checkpointAt(i).gcc);
            EXPECT_EQ(savedBytes(ring.readInterval(i)),
                      savedBytes(batch.readInterval(i)))
                << mode_name << " checkpoint " << i;
        }
        EXPECT_EQ(savedBytes(ring.readInterval(0, 2)),
                  savedBytes(batch.readInterval(0, 2)))
            << mode_name;
        std::filesystem::remove_all(dir);
    }
}

TEST(Ring, WriteRingConvenienceAndMisuse)
{
    const std::string dir = ringDir("misuse");
    const Recording rec = record(ModeConfig::orderOnly(), "fft", 20);
    const RingWriterStats stats = writeRing(rec, dir, RingOptions{});
    EXPECT_EQ(stats.segmentsCut, rec.checkpoints.size() + 1);

    RingArchiveWriter writer(ringDir("misuse2"), RingOptions{});
    writer.close(rec);
    EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
    EXPECT_THROW(writer.close(rec), std::logic_error);

    Recording shuffled = rec;
    ASSERT_GE(shuffled.checkpoints.size(), 2u);
    std::swap(shuffled.checkpoints.front(),
              shuffled.checkpoints.back());
    RingArchiveWriter strict(ringDir("misuse3"), RingOptions{});
    EXPECT_THROW(strict.onCheckpoint(shuffled),
                 RecordingFormatError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, EvictionKeepsNewestWindowDecodable)
{
    // A budget that can hold only a few segments: old history must be
    // evicted, every retained interval must still match the batch
    // archive's view of the same checkpoints, and the replay-start
    // lag contract must hold throughout.
    const std::string dir = ringDir("evict");
    RingOptions opts;
    // Segment files are dominated by their two checkpoint images
    // (~100 KiB each here): this holds roughly the newest 3-4
    // segments of a ~5 MiB run.
    opts.budgetBytes = 512u << 10;
    opts.checkpointPeriod = 10;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderAndSize(), "ocean", 10, &writer);
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 6u);

    const RingWriterStats stats = writer.stats();
    EXPECT_GT(stats.segmentsEvicted, 0u);
    EXPECT_LE(stats.worstStartLag, opts.resolvedLag());
    EXPECT_LE(stats.maxCheckpointSpacing, opts.checkpointPeriod);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    // Over budget only when the protected newest segment alone is.
    if (ring.segments().size() > 1)
        EXPECT_LE(stats.liveBytes, opts.budgetBytes);
    EXPECT_TRUE(ring.recovery().clean);
    EXPECT_GT(ring.startGcc(), 0u);
    ASSERT_GE(ring.checkpointCount(), 2u);

    // Ring checkpoints are a contiguous suffix of the recording's;
    // views must agree with the batch archive at the same GCCs.
    const ArchiveReader batch =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::uint64_t first_gcc = ring.checkpointAt(0).gcc;
    std::size_t off = 0;
    while (off < batch.checkpointCount()
           && batch.checkpointAt(off).gcc != first_gcc)
        ++off;
    ASSERT_LT(off, batch.checkpointCount());
    for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
        ASSERT_EQ(ring.checkpointAt(i).gcc,
                  batch.checkpointAt(off + i).gcc);
        EXPECT_EQ(savedBytes(ring.readInterval(i)),
                  savedBytes(batch.readInterval(off + i)))
            << "checkpoint " << i;
    }

    // The whole run is gone; say so with a typed error.
    EXPECT_THROW(ring.readAll(), CheckpointOutOfRangeError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, TimeTravelSeekAndReplay)
{
    const std::string dir = ringDir("seek");
    RingOptions opts;
    opts.checkpointPeriod = 15;
    RingArchiveWriter writer(dir, opts);
    Workload w("radix", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(
        w, 1, true, {}, 15,
        [&writer](const Recording &r) { writer.onCheckpoint(r); });
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    const std::vector<std::uint64_t> gccs = ring.checkpointGccs();

    // Exact hits, between-checkpoint cycles, and beyond-the-end all
    // resolve to the newest checkpoint at or before the cycle.
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(gccs[0]), 0u);
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(gccs[1] + 1), 1u);
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(~0ull),
              gccs.size() - 1);
    EXPECT_THROW(ring.newestCheckpointAtOrBefore(gccs[0] - 1),
                 CheckpointOutOfRangeError);

    // Time-travel replay: seek, decode the bounded interval, replay
    // forward and judge against the stop checkpoint.
    const std::size_t idx =
        ring.newestCheckpointAtOrBefore(gccs[1] + 3);
    const Recording view = ring.readInterval(idx, idx + 1);
    ASSERT_EQ(view.checkpoints.size(), 2u);
    Replayer replayer;
    const ReplayOutcome out = replayer.replayInterval(
        view, 0, w, 77, perturb(5), &view.checkpoints[1]);
    EXPECT_TRUE(out.deterministicExact);
    EXPECT_EQ(out.fingerprint.commits.size(), gccs[2] - gccs[1]);
    std::filesystem::remove_all(dir);
}

TEST(Ring, TornTailSalvageKeepsBoundedReads)
{
    // Kill-mid-segment crash shape: the newest segment file is torn.
    // Recovery must drop exactly that file, flag the ring unclean,
    // and keep every bounded interval over the surviving window
    // byte-identical to the batch archive's.
    const std::string dir = ringDir("torn");
    RingOptions opts;
    opts.checkpointPeriod = 15;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderAndSize(), "fft", 15, &writer);
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const std::string tail = newestSegmentPath(dir);
    ASSERT_FALSE(tail.empty());
    const auto size = std::filesystem::file_size(tail);
    ASSERT_GT(size, 8u);
    std::filesystem::resize_file(tail, size - 7);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_FALSE(ring.recovery().clean);
    EXPECT_FALSE(ring.recovery().usedIndex); // index is stale now
    EXPECT_GE(ring.recovery().droppedSegments, 1u);
    ASSERT_GE(ring.checkpointCount(), 2u);

    // A crashed recorder never knew the run's final stats, so the
    // salvaged views carry zeroed finals; everything else — logs,
    // checkpoints, commits — must be byte-identical to the batch
    // archive's view of the same interval.
    const ArchiveReader batch =
        ArchiveReader::fromBytes(archiveBytes(rec));
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Replayer replayer;
    for (std::size_t i = 0; i + 1 < ring.checkpointCount(); ++i) {
        Recording view = ring.readInterval(i, i + 1);
        const Recording want = batch.readInterval(i, i + 1);
        EXPECT_EQ(view.fingerprint.finalMemHash, 0u);
        view.fingerprint.perProcAcc = want.fingerprint.perProcAcc;
        view.fingerprint.perProcRetired =
            want.fingerprint.perProcRetired;
        view.fingerprint.finalMemHash = want.fingerprint.finalMemHash;
        EXPECT_EQ(savedBytes(view), savedBytes(want))
            << "checkpoint " << i;

        // And the salvaged view replays deterministically.
        const ReplayOutcome out = replayer.replayInterval(
            view, 0, w, 55 + i, perturb(i + 1),
            &view.checkpoints[1]);
        EXPECT_TRUE(out.deterministicExact) << "checkpoint " << i;
    }

    // No finals without a clean close: unbounded reads are refused
    // with a typed error instead of fabricating stats.
    EXPECT_THROW(ring.readInterval(0), ArchiveError);
    EXPECT_THROW(ring.readAll(), ArchiveError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, GapSalvageKeepsNewestContiguousRun)
{
    const std::string dir = ringDir("gap");
    RingOptions opts;
    opts.checkpointPeriod = 12;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderOnly(), "lu", 12, &writer);
    writer.close(rec);
    const RingArchiveReader before = RingArchiveReader::open(dir);
    const std::size_t total = before.segments().size();
    ASSERT_GE(total, 4u);

    // Punch a hole in the middle: everything older than the gap is
    // unreachable (its end checkpoint chain is broken).
    const std::uint64_t victim = before.segments()[1].segId;
    std::ostringstream name;
    name << "seg-" << std::setw(12) << std::setfill('0') << victim;
    ASSERT_TRUE(
        std::filesystem::remove(dir + "/" + name.str()));

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_FALSE(ring.recovery().usedIndex);
    EXPECT_EQ(ring.segments().size(), total - 2); // victim + older
    EXPECT_EQ(ring.segments().front().segId, victim + 1);
    // Still clean-decodable after the cut: the index no longer
    // matches, so finals are dropped, but bounded reads survive.
    ASSERT_GE(ring.checkpointCount(), 1u);
    EXPECT_NO_THROW(ring.readInterval(0, ring.checkpointCount() - 1));
    std::filesystem::remove_all(dir);
}

TEST(Ring, ZeroCheckpointRecording)
{
    // No checkpoints at all: one tail segment, no replay starting
    // points, but a cleanly closed ring still reconstructs the run.
    const std::string dir = ringDir("zero");
    const Recording rec = record(ModeConfig::picoLog(), "fft", 0);
    ASSERT_TRUE(rec.checkpoints.empty());
    writeRing(rec, dir, RingOptions{});

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_TRUE(ring.recovery().clean);
    EXPECT_EQ(ring.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(ring.readAll()), savedBytes(rec));
    EXPECT_THROW(ring.readInterval(0), CheckpointOutOfRangeError);
    EXPECT_THROW(ring.newestCheckpointAtOrBefore(~0ull),
                 CheckpointOutOfRangeError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, FlushFailurePoisonsWriter)
{
    // The ring runs the archive writer's segment pipeline, so a
    // segment file that cannot be written on the flusher must poison
    // it the same way: one typed error from the next call, then a
    // closed writer. A directory planted where segment 1 goes (after
    // the first hook call has set the ring up) makes that write fail.
    const std::string dir = ringDir("poison");
    RingOptions opts;
    opts.checkpointPeriod = 20;
    opts.io.ioThreads = 2;
    RingArchiveWriter writer(dir, opts);
    int calls = 0;
    int write_errors = 0;
    int rejected = 0;
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(
        w, 1, true, {}, 20, [&](const Recording &r) {
            try {
                writer.onCheckpoint(r);
            } catch (const ArchiveWriteError &) {
                ++write_errors;
            } catch (const std::logic_error &) {
                ++rejected;
            }
            if (++calls == 1)
                std::filesystem::create_directory(
                    dir + "/seg-000000000001");
        });
    ASSERT_GE(rec.checkpoints.size(), 2u);
    EXPECT_LE(write_errors, 1);
    if (write_errors == 0) {
        EXPECT_EQ(rejected, 0);
        EXPECT_THROW(writer.close(rec), ArchiveWriteError);
    } else {
        EXPECT_THROW(writer.close(rec), std::logic_error);
    }
    EXPECT_TRUE(writer.closed());
    EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
    EXPECT_THROW(writer.close(rec), std::logic_error);
    std::filesystem::remove_all(dir);
}

TEST(Ring, OpenRejectsNonRingDirectories)
{
    EXPECT_FALSE(RingArchiveReader::looksLikeRing(
        testing::TempDir() + "no_such_ring_dir"));
    EXPECT_THROW(RingArchiveReader::open(testing::TempDir()
                                         + "no_such_ring_dir"),
                 ArchiveError);

    // A directory whose meta is garbage is typed, not UB.
    const std::string dir = ringDir("garbage");
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/ring.meta", std::ios::binary)
        << "not a ring at all, sorry";
    EXPECT_FALSE(RingArchiveReader::looksLikeRing(dir));
    EXPECT_THROW(RingArchiveReader::open(dir), ArchiveError);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace delorean
