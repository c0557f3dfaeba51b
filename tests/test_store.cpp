/**
 * @file
 * Archive container (src/store): segmented, compressed,
 * checkpoint-indexed storage for recordings. Round-trip byte
 * identity, O(1) checkpoint seek, and interval replay that decodes
 * only the segments covering the requested GCC interval.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
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

/** Archive -> readAll must be byte-identical under saveRecording. */
void
expectRoundTripAllApps(const ModeConfig &mode, const char *mode_name)
{
    for (const std::string &app : AppTable::splash2Names()) {
        Workload w(app, 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        ASSERT_EQ(reader.checkpointCount(), rec.checkpoints.size())
            << mode_name << "/" << app;
        const Recording back = reader.readAll();
        EXPECT_TRUE(savedBytes(back) == savedBytes(rec))
            << mode_name << "/" << app;
    }
}

TEST(Store, RoundTripByteIdentityOrderAndSize)
{
    expectRoundTripAllApps(ModeConfig::orderAndSize(), "OrderAndSize");
}

TEST(Store, RoundTripByteIdentityOrderOnly)
{
    expectRoundTripAllApps(ModeConfig::orderOnly(), "OrderOnly");
}

TEST(Store, RoundTripByteIdentityStratified)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 4;
    expectRoundTripAllApps(mode, "OrderOnlyStratified");
}

TEST(Store, RoundTripByteIdentityPicoLog)
{
    expectRoundTripAllApps(ModeConfig::picoLog(), "PicoLog");
}

TEST(Store, RoundTripWithSystemActivity)
{
    // Interrupts, I/O loads and DMA transfers crossing segment
    // boundaries must land in the right segments.
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("sweb2005", 4, 9, WorkloadScale{30});
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 25);
        ASSERT_GT(rec.io.totalEntries(), 0u) << mode_name;
        ASSERT_GT(rec.dma.count(), 0u) << mode_name;

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        const Recording back = reader.readAll();
        EXPECT_TRUE(savedBytes(back) == savedBytes(rec)) << mode_name;
    }
}

TEST(Store, RoundTripWithoutCheckpoints)
{
    // No checkpoints -> a single tail segment; still byte-identical.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.checkpoints.empty());

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    EXPECT_EQ(reader.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
}

TEST(Store, FooterIndexMetadata)
{
    Workload w("lu", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    EXPECT_EQ(reader.appName(), "lu");
    EXPECT_EQ(reader.workloadSeed(), 9u);
    EXPECT_EQ(reader.machine().numProcs, 4u);
    EXPECT_EQ(reader.mode().mode, ExecMode::kOrderOnly);

    // Segments = checkpoints + tail; boundaries ascending.
    const auto &segs = reader.segments();
    ASSERT_EQ(segs.size(), rec.checkpoints.size() + 1);
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        EXPECT_EQ(segs[i].endGcc, rec.checkpoints[i].gcc);
        EXPECT_TRUE(segs[i].hasEndCheckpoint);
        EXPECT_EQ(reader.checkpointAt(i).gcc, rec.checkpoints[i].gcc);
    }
    EXPECT_FALSE(segs.back().hasEndCheckpoint);
    for (std::size_t i = 1; i < segs.size(); ++i)
        EXPECT_GE(segs[i].endGcc, segs[i - 1].endGcc);
}

/**
 * Interval replay straight off the archive: from every checkpoint, in
 * every mode, the decoded interval view must replay to the same
 * fingerprint as full replay of that interval.
 */
TEST(Store, IntervalReplayFromEveryCheckpointAllModes)
{
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("radix", 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);
        ASSERT_GE(rec.checkpoints.size(), 1u) << mode_name;

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        Replayer replayer;
        for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
            const Recording view = reader.readInterval(i);
            ASSERT_EQ(view.checkpoints.size(), 1u);
            const ReplayOutcome out = replayer.replayInterval(
                view, 0, w, 31 + i, perturb(i + 1));
            // Stratified replay may legally reorder commits inside a
            // stratum, so determinism is judged per-processor there.
            if (mode.stratifyChunksPerProc != 0)
                EXPECT_TRUE(out.deterministicPerProc)
                    << mode_name << " checkpoint " << i;
            else
                EXPECT_TRUE(out.deterministicExact)
                    << mode_name << " checkpoint " << i;
        }
    }
}

TEST(Store, BoundedIntervalReplayBetweenCheckpoints)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 15);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    Replayer replayer;
    const Recording view = reader.readInterval(0, 2);
    ASSERT_EQ(view.checkpoints.size(), 2u);
    const ReplayOutcome out = replayer.replayInterval(
        view, 0, w, 7, perturb(4), &view.checkpoints[1]);
    EXPECT_TRUE(out.deterministicExact);
    // Exactly the chunk commits between the two checkpoint GCCs.
    EXPECT_EQ(out.fingerprint.commits.size(),
              rec.checkpoints[2].gcc - rec.checkpoints[0].gcc);
}

TEST(Store, IntervalViewDecodesOnlyCoveringSegments)
{
    // The interval view's logs must be strictly smaller than the full
    // recording's serialized form once the skipped prefix is real.
    Workload w("barnes", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::size_t last = reader.checkpointCount() - 1;
    const Recording view = reader.readInterval(last);
    // CS entries for chunks committed before the start checkpoint are
    // not decoded (only the slices after the seek point are).
    std::size_t full_cs = 0;
    std::size_t view_cs = 0;
    for (unsigned p = 0; p < 4; ++p) {
        full_cs += rec.cs[p].entryCount();
        view_cs += view.cs[p].entryCount();
    }
    EXPECT_LT(view_cs, full_cs);
}

TEST(Store, ArchiveFileRoundTrip)
{
    Workload w("water-ns", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 25);

    const std::string path =
        ::testing::TempDir() + "store_roundtrip.dla";
    writeArchiveFile(rec, path);
    EXPECT_TRUE(ArchiveReader::fileLooksLikeArchive(path));
    const ArchiveReader reader = ArchiveReader::fromFile(path);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    std::remove(path.c_str());
}

TEST(Store, WriterByteIdenticalAcrossIoThreads)
{
    // The parallel segment codec commits in segment order, so the
    // container bytes must not depend on the worker count — for any
    // mode, including the default (DELOREAN_JOBS-resolved) options.
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("radix", 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);
        ASSERT_FALSE(rec.checkpoints.empty()) << mode_name;

        const auto archivedWith = [&rec](const ArchiveIoOptions &io) {
            std::ostringstream out(std::ios::binary);
            writeArchive(rec, out, io);
            return std::move(out).str();
        };
        const std::string serial =
            archivedWith(ArchiveIoOptions{1, true});
        for (const unsigned threads : {2u, 4u, 8u})
            EXPECT_EQ(archivedWith(ArchiveIoOptions{threads, true}),
                      serial)
                << mode_name << " ioThreads=" << threads;
        EXPECT_EQ(archivedWith(ArchiveIoOptions{}), serial)
            << mode_name << " default options";
    }
}

TEST(Store, FileReadsIdenticalAcrossMmapAndIoThreads)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const std::string path =
        testing::TempDir() + "store_datapath_test.dla";
    writeArchiveFile(rec, path);
    const std::string expect = savedBytes(rec);

    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const ArchiveReader reader = ArchiveReader::fromFile(
                path, ArchiveIoOptions{threads, mmap_reads});
            if (!mmap_reads) {
                EXPECT_FALSE(reader.usingMmap());
            } else if (MappedFile::supported()) {
                EXPECT_TRUE(reader.usingMmap());
            }
            ASSERT_EQ(savedBytes(reader.readAll()), expect)
                << "mmap=" << mmap_reads << " threads=" << threads;
        }
    }

    // Interval views must also agree byte-for-byte across the paths.
    const ArchiveReader mapped =
        ArchiveReader::fromFile(path, ArchiveIoOptions{4, true});
    const ArchiveReader buffered =
        ArchiveReader::fromFile(path, ArchiveIoOptions{1, false});
    const ArchiveReader in_memory = ArchiveReader::fromBytes(
        archiveBytes(rec), ArchiveIoOptions{2, true});
    EXPECT_FALSE(in_memory.usingMmap());
    for (std::size_t i = 0; i < mapped.checkpointCount(); ++i) {
        const std::string view = savedBytes(mapped.readInterval(i));
        EXPECT_EQ(view, savedBytes(buffered.readInterval(i))) << i;
        EXPECT_EQ(view, savedBytes(in_memory.readInterval(i))) << i;
    }
    std::remove(path.c_str());
}

// A missing .dla is a typed container error on both read paths, the
// same kind RingArchiveReader::open raises for a missing ring.meta.
TEST(Store, MissingArchiveFileIsTyped)
{
    const std::string path =
        testing::TempDir() + "store_no_such_archive.dla";
    std::remove(path.c_str());
    for (const bool mmap_reads : {true, false}) {
        try {
            ArchiveReader::fromFile(path, ArchiveIoOptions{1, mmap_reads});
            ADD_FAILURE() << "opened a missing archive, mmap="
                          << mmap_reads;
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFileHeader);
            EXPECT_EQ(e.segment(), ArchiveError::kNoSegment);
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
}

TEST(Store, Version2ArchiveRejected)
{
    // Version 2 kept checkpoints and the segment index in a footer;
    // version 3 packs the ring's segment records. A version-2 file is
    // refused up front with a typed header error on every load path.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    std::vector<std::uint8_t> bytes = archiveBytes(rec);
    ASSERT_GE(bytes.size(), 16u);
    bytes[8] = 2; // the version word, little-endian
    for (int i = 9; i < 16; ++i)
        bytes[i] = 0;
    const std::string path = testing::TempDir() + "store_v2.dla";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    const auto expect_rejected = [](const auto &open, const char *how) {
        try {
            open();
            ADD_FAILURE() << how << ": opened a version-2 archive";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFileHeader) << how;
            EXPECT_NE(std::string(e.what()).find(
                          "unsupported archive version 2"),
                      std::string::npos)
                << how << ": " << e.what();
        }
    };
    expect_rejected([&] { ArchiveReader::fromBytes(bytes); }, "bytes");
    for (const bool mmap_reads : {true, false})
        expect_rejected(
            [&] {
                ArchiveReader::fromFile(path,
                                        ArchiveIoOptions{1, mmap_reads});
            },
            mmap_reads ? "mmap" : "buffered");
    std::remove(path.c_str());
}

TEST(Store, StreamingWriterByteIdenticalAllModes)
{
    // Hook-fed emission (one checkpoint at a time from the record
    // loop) must equal close-fed emission (the whole recording at
    // close(), which is what writeArchive() does), at any codec worker
    // count. The bytes themselves are pinned by test_format_freeze.
    for (const auto &[mode_name, mode] : allModes()) {
        for (const unsigned threads : {1u, 4u}) {
            Workload w("radix", 4, 9, WorkloadScale::tiny());
            Recorder recorder(mode, machine());

            std::ostringstream streamed(std::ios::binary);
            StreamingArchiveWriter writer(streamed,
                                          ArchiveIoOptions{threads,
                                                           true});
            const Recording rec = recorder.record(
                w, 1, true, {}, 20,
                [&writer](const Recording &r) {
                    writer.onCheckpoint(r);
                });
            writer.close(rec);
            EXPECT_TRUE(writer.closed());
            ASSERT_FALSE(rec.checkpoints.empty()) << mode_name;
            EXPECT_EQ(writer.segmentCount(),
                      rec.checkpoints.size() + 1)
                << mode_name;

            std::ostringstream batch(std::ios::binary);
            writeArchive(rec, batch);
            const std::string expect = std::move(batch).str();
            EXPECT_EQ(std::move(streamed).str(), expect)
                << mode_name << " hook-fed ioThreads=" << threads;

            // Batch-fed: no hook, every segment cut at close().
            std::ostringstream fed(std::ios::binary);
            StreamingArchiveWriter tail(fed,
                                        ArchiveIoOptions{threads,
                                                         true});
            tail.close(rec);
            EXPECT_EQ(std::move(fed).str(), expect)
                << mode_name << " batch-fed ioThreads=" << threads;
        }
    }
}

TEST(Store, StreamingFileReadbackAcrossDatapaths)
{
    // A streamed file must be indistinguishable from a batch-written
    // one to every reader datapath: mmap and buffered, serial and
    // parallel decode.
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const std::string path = testing::TempDir() + "store_streamed.dla";

    std::string expect;
    {
        std::ofstream file(path, std::ios::binary);
        StreamingArchiveWriter writer(file);
        const Recording rec = recorder.record(
            w, 1, true, {}, 20,
            [&writer](const Recording &r) { writer.onCheckpoint(r); });
        writer.close(rec);
        expect = savedBytes(rec);
    }
    EXPECT_TRUE(ArchiveReader::fileLooksLikeArchive(path));

    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 4u}) {
            const ArchiveReader reader = ArchiveReader::fromFile(
                path, ArchiveIoOptions{threads, mmap_reads});
            EXPECT_EQ(savedBytes(reader.readAll()), expect)
                << "mmap=" << mmap_reads << " threads=" << threads;
        }
    }
    std::remove(path.c_str());
}

TEST(Store, StreamingWriterRejectsOutOfOrderCheckpoints)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    Recording rec = recorder.record(w, 1, true, {}, 15);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    std::swap(rec.checkpoints.front(), rec.checkpoints.back());

    std::ostringstream out(std::ios::binary);
    StreamingArchiveWriter writer(out);
    EXPECT_THROW(writer.onCheckpoint(rec), RecordingFormatError);
}

TEST(Store, StreamingWriterUseAfterCloseThrows)
{
    Workload w("lu", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 25);

    std::ostringstream out(std::ios::binary);
    StreamingArchiveWriter writer(out);
    writer.close(rec);
    EXPECT_TRUE(writer.closed());
    EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
    EXPECT_THROW(writer.close(rec), std::logic_error);
}

TEST(Store, CheckpointOutOfRangeIsTyped)
{
    // An interval request naming a checkpoint the container does not
    // hold is an operator error, not container corruption: it must
    // surface as the dedicated subtype carrying the requested index
    // and what was actually available.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::size_t count = reader.checkpointCount();

    try {
        reader.checkpointAt(count);
        FAIL() << "expected CheckpointOutOfRangeError";
    } catch (const CheckpointOutOfRangeError &e) {
        EXPECT_EQ(e.index(), count);
        EXPECT_EQ(e.available(), count);
        EXPECT_EQ(e.section(), ArchiveSection::kCheckpointIndex);
    }
    try {
        reader.readInterval(count + 3);
        FAIL() << "expected CheckpointOutOfRangeError";
    } catch (const CheckpointOutOfRangeError &e) {
        EXPECT_EQ(e.index(), count + 3);
        EXPECT_EQ(e.available(), count);
    }
    // Inverted bounds are the same category.
    EXPECT_THROW(reader.readInterval(1, 1),
                 CheckpointOutOfRangeError);
    // And the subtype still lands in generic ArchiveError handlers.
    EXPECT_THROW(reader.checkpointAt(count), ArchiveError);
}

TEST(Store, StreamingWriterCloseDuringFlush)
{
    // close() must drain correctly while the background flusher is
    // still mid-batch: stage a large first feed (kicking off a flush)
    // and close immediately after, with no settling time.
    Workload w("barnes", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 10);
    ASSERT_GE(rec.checkpoints.size(), 4u);

    std::ostringstream batch(std::ios::binary);
    writeArchive(rec, batch);
    const std::string expect = std::move(batch).str();

    for (int round = 0; round < 3; ++round) {
        std::ostringstream streamed(std::ios::binary);
        StreamingArchiveWriter writer(streamed);
        writer.onCheckpoint(rec); // stages every segment, flush starts
        writer.close(rec);        // drains while the flusher runs
        EXPECT_EQ(std::move(streamed).str(), expect)
            << "round " << round;
    }
}

TEST(Store, StreamingWriterZeroCheckpointRecording)
{
    // A recording with no checkpoints streams to a single tail
    // segment and must still match writeArchive() byte for byte.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.checkpoints.empty());

    std::ostringstream streamed(std::ios::binary);
    StreamingArchiveWriter writer(streamed);
    writer.onCheckpoint(rec); // no checkpoints: nothing to cut yet
    writer.close(rec);
    EXPECT_EQ(writer.segmentCount(), 1u);

    std::ostringstream batch(std::ios::binary);
    writeArchive(rec, batch);
    const std::string bytes = std::move(streamed).str();
    EXPECT_EQ(bytes, std::move(batch).str());

    const ArchiveReader reader = ArchiveReader::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    EXPECT_EQ(reader.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    EXPECT_THROW(reader.readInterval(0), CheckpointOutOfRangeError);
}

TEST(Store, WriteArchiveFileToFullDeviceThrows)
{
    // A few hundred bytes in writes of under 1 KiB: the file stream
    // buffers all of it, so the device refuses the archive only when
    // the file is flushed and closed. That must still surface as a
    // typed error, never a silent short file.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    Workload w("fft", 4, 9, WorkloadScale{1});
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_LT(archiveBytes(rec).size(), 1024u);
    EXPECT_THROW(writeArchiveFile(rec, "/dev/full"), ArchiveWriteError);
}

/** Accepts the first @p limit bytes, then fails every write. */
class FailingBuf : public std::streambuf
{
  public:
    explicit FailingBuf(std::streamsize limit) : left_(limit) {}

  protected:
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        if (left_ == 0)
            return traits_type::eof();
        --left_;
        return c;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        const std::streamsize taken = std::min(n, left_);
        left_ -= taken;
        return taken;
    }

  private:
    std::streamsize left_;
};

TEST(Store, StreamingWriterFlushFailurePoisonsWriter)
{
    // With a 300-byte budget the stream takes the 16-byte file header
    // and the meta record (written on the recording thread; 243 bytes
    // for this run) and then fails, so the first segment commit — on
    // the background flusher — goes bad. With 64 bytes the meta record
    // itself fails, on the recording thread. Either failure must come
    // back exactly once, typed, from the next onCheckpoint() or from
    // close(), and leave the writer closed: every later call is a
    // logic error.
    for (const std::streamsize budget : {64, 300})
    for (const unsigned threads : {1u, 2u}) {
        Workload w("fft", 4, 9, WorkloadScale::tiny());
        Recorder recorder(ModeConfig::orderOnly(), machine());
        FailingBuf buf(budget);
        std::ostream out(&buf);
        StreamingArchiveWriter writer(out,
                                      ArchiveIoOptions{threads, true});
        int write_errors = 0;
        int rejected = 0;
        const Recording rec = recorder.record(
            w, 1, true, {}, 20, [&](const Recording &r) {
                try {
                    writer.onCheckpoint(r);
                } catch (const ArchiveWriteError &) {
                    ++write_errors;
                    EXPECT_TRUE(writer.closed());
                } catch (const std::logic_error &) {
                    ++rejected;
                }
            });
        ASSERT_GE(rec.checkpoints.size(), 2u);
        EXPECT_LE(write_errors, 1) << "threads=" << threads;
        if (write_errors == 0) {
            EXPECT_EQ(rejected, 0);
            EXPECT_FALSE(writer.closed());
            EXPECT_THROW(writer.close(rec), ArchiveWriteError)
                << "threads=" << threads;
        } else {
            EXPECT_THROW(writer.close(rec), std::logic_error);
        }
        EXPECT_TRUE(writer.closed());
        EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
        EXPECT_THROW(writer.close(rec), std::logic_error);
    }
}

TEST(Store, ArchiveMagicSniffRejectsRecording)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    const std::string raw = savedBytes(rec);
    EXPECT_FALSE(ArchiveReader::looksLikeArchive(
        reinterpret_cast<const std::uint8_t *>(raw.data()),
        raw.size()));
}

} // namespace
} // namespace delorean
