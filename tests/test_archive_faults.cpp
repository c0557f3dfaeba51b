/**
 * @file
 * Archive-corruption fault sweep (fuzz tier).
 *
 * The acceptance gate for the store subsystem: >= 500 mutated
 * archives across the recording modes must each be *detected* — a
 * typed ArchiveError naming the failing section (and segment id for
 * payload damage), a rejection from validateRecording, an identical
 * replay (mutation hit dead bytes), or a structured divergence —
 * never a crash, a hang, or a silent wrong answer. Runs under the
 * `fuzz` ctest label.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/recorder.hpp"
#include "store/archive.hpp"
#include "validate/fault_injector.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;
// 60 mutants x 3 kinds x 3 modes = 540 total, over the gate's 500.
constexpr unsigned kMutantsPerKind = 60;

Recording
record(const ModeConfig &mode, std::uint64_t checkpoint_period = 25)
{
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft", machine.numProcs, kSeed,
                            WorkloadScale{10});
    return Recorder(mode, machine)
        .record(workload, /*env_seed=*/1, true, {}, checkpoint_period);
}

std::vector<std::uint8_t>
archive(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    writeArchive(rec, out);
    const std::string s = std::move(out).str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

class ArchiveFaultSweep : public testing::TestWithParam<int>
{
  protected:
    static std::pair<const char *, ModeConfig>
    current()
    {
        switch (GetParam()) {
          case 0:
            return {"order-and-size", ModeConfig::orderAndSize()};
          case 1: {
            ModeConfig strat = ModeConfig::orderOnly();
            strat.stratifyChunksPerProc = 4;
            return {"order-only-strat", strat};
          }
          default:
            return {"picolog", ModeConfig::picoLog()};
        }
    }
};

TEST_P(ArchiveFaultSweep, MutantsNeverCrashHangOrLie)
{
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    ASSERT_GE(rec.checkpoints.size(), 1u) << name;
    const ArchiveFaultSweepSummary sweep =
        runArchiveFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kArchiveMutationKinds);
    EXPECT_TRUE(sweep.ok()) << name << ": " << sweep.describe();
    // The sweep must exercise both sides of the contract: most
    // mutants caught by the integrity layers, and at least some
    // surviving to a replay verdict (index-corrupt mutants that hit
    // dead footer bytes, e.g. a statistics field).
    EXPECT_GT(sweep.rejectedAtLoad, 0u) << name;
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u)
        << name;
}

TEST_P(ArchiveFaultSweep, MmapPathFencesMutantsIdentically)
{
    // Same 540 mutants, pushed through fromFile with mmap enabled:
    // the zero-copy reader must classify every mutant exactly like
    // the buffered reader — same outcome buckets, zero unexpected.
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    const ArchiveFaultSweepSummary buffered = runArchiveFaultSweep(
        rec, kMutantsPerKind, /*seed0=*/kSeed, {},
        ArchiveLoadPath::kBuffered);
    const ArchiveFaultSweepSummary mapped = runArchiveFaultSweep(
        rec, kMutantsPerKind, /*seed0=*/kSeed, {},
        ArchiveLoadPath::kMmapFile);
    EXPECT_TRUE(mapped.ok()) << name << ": " << mapped.describe();
    EXPECT_EQ(mapped.total, buffered.total) << name;
    EXPECT_EQ(mapped.rejectedAtLoad, buffered.rejectedAtLoad) << name;
    EXPECT_EQ(mapped.replayedIdentically, buffered.replayedIdentically)
        << name;
    EXPECT_EQ(mapped.divergenceDetected, buffered.divergenceDetected)
        << name;
    EXPECT_EQ(mapped.replayErrorReported, buffered.replayErrorReported)
        << name;
}

TEST(ArchiveFaultSweepDetector, DetectorLegNeverCrashesHangsOrLies)
{
    // Detector leg of the 540-mutant bucket: corrupted archives fed
    // to a replay with the race detector attached must still end in a
    // typed ArchiveError / RecordingFormatError rejection, an
    // identical replay, or a structured divergence — never a crash or
    // hang. A seeded-race base recording keeps the detector live on
    // every mutant that survives to replay.
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft~r2", machine.numProcs, kSeed,
                            WorkloadScale{10});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine)
            .record(workload, /*env_seed=*/1, true, {}, 25);
    ASSERT_GE(rec.checkpoints.size(), 1u);

    ReplayCheckOptions opts;
    opts.detectRaces = true;
    const ArchiveFaultSweepSummary sweep =
        runArchiveFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed,
                             opts);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kArchiveMutationKinds);
    EXPECT_TRUE(sweep.ok()) << sweep.describe();
    EXPECT_GT(sweep.rejectedAtLoad, 0u);
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ArchiveFaultSweep, testing::Range(0, 3));

/**
 * Ring-directory fault sweep: crash-and-rot shapes against the
 * always-on container. 60 mutants x 3 kinds x 2 modes = 360 rings,
 * each recovered by RingArchiveReader::open and replayed over the
 * retained window — never a crash, a hang, or a silent wrong answer.
 */
class RingFaultSweep : public testing::TestWithParam<int>
{
  protected:
    static std::pair<const char *, ModeConfig>
    current()
    {
        if (GetParam() == 0)
            return {"order-and-size", ModeConfig::orderAndSize()};
        ModeConfig strat = ModeConfig::orderOnly();
        strat.stratifyChunksPerProc = 4;
        return {"order-only-strat", strat};
    }
};

TEST_P(RingFaultSweep, MutantsNeverCrashHangOrLie)
{
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    ASSERT_GE(rec.checkpoints.size(), 2u) << name;

    const RingFaultSweepSummary sweep =
        runRingFaultSweep(rec, kMutantsPerKind,
                          /*seed0=*/kSeed + GetParam());
    EXPECT_EQ(sweep.total, kMutantsPerKind * kRingMutationKinds);
    EXPECT_TRUE(sweep.ok()) << name << ": " << sweep.describe();
    // Both sides of the recovery contract must be exercised: typed
    // rejections (a ring shredded beyond salvage) and successful
    // salvages that replay the surviving window.
    EXPECT_GT(sweep.salvaged, 0u) << name << ": " << sweep.describe();
    EXPECT_GT(sweep.replayedIdentically, 0u)
        << name << ": " << sweep.describe();
}

INSTANTIATE_TEST_SUITE_P(Modes, RingFaultSweep, testing::Range(0, 2));

TEST(RingFaults, EachMutationKindLandsInItsExpectedBucket)
{
    // Taxonomy: a deleted interior segment shrinks the window
    // (salvage, never a crash); a torn tail drops exactly the torn
    // file; a lying index is overruled by the directory scan, so an
    // index-only fault can never reject a ring whose segments are
    // intact.
    const Recording rec = record(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::string dir =
        (std::filesystem::temp_directory_path()
         / "delorean-ring-taxonomy")
            .string();
    std::filesystem::remove_all(dir);
    writeRing(rec, dir, RingOptions{});

    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const RingMutantResult gap = runRingMutant(
            dir, RingMutationKind::kEvictedGap, seed);
        ASSERT_NE(gap.outcome, MutantOutcome::kUnexpected)
            << "gap seed " << seed << ": " << gap.message;
        EXPECT_TRUE(gap.salvaged) << "gap seed " << seed;

        const RingMutantResult torn = runRingMutant(
            dir, RingMutationKind::kTornTail, seed);
        ASSERT_NE(torn.outcome, MutantOutcome::kUnexpected)
            << "torn seed " << seed << ": " << torn.message;
        EXPECT_TRUE(torn.droppedSegments >= 1
                    || torn.outcome == MutantOutcome::kRejectedAtLoad)
            << "torn seed " << seed;

        const RingMutantResult stale = runRingMutant(
            dir, RingMutationKind::kStaleIndex, seed);
        ASSERT_NE(stale.outcome, MutantOutcome::kUnexpected)
            << "stale seed " << seed << ": " << stale.message;
        EXPECT_NE(stale.outcome, MutantOutcome::kRejectedAtLoad)
            << "stale seed " << seed
            << ": intact segments must survive an index-only fault";
        EXPECT_EQ(stale.droppedSegments, 0u) << "stale seed " << seed;
    }
    std::filesystem::remove_all(dir);
}

/**
 * Corruption taxonomy: every mutation class must produce its expected
 * typed error. Payload damage names the segment; footer truncation
 * names the trailer or footer; a lying index is caught by the
 * semantic cross-checks or the segment-header comparison.
 */
TEST(ArchiveFaults, SegmentBitFlipNamesTheSegment)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);
    const ArchiveReader intact = ArchiveReader::fromBytes(bytes);

    unsigned typed = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const ArchiveMutantResult r = runArchiveMutant(
            bytes, ArchiveMutationKind::kSegmentBitFlip, seed);
        ASSERT_NE(r.outcome, MutantOutcome::kUnexpected)
            << "seed " << seed << ": " << r.message;
        if (r.outcome == MutantOutcome::kRejectedAtLoad
            && r.typedArchiveError) {
            // A payload flip is caught by the per-segment CRC and
            // must name a real segment.
            EXPECT_LT(r.segment, intact.segments().size())
                << "seed " << seed << ": " << r.message;
            ++typed;
        }
    }
    // CRC-32 catches essentially every payload flip; allow a little
    // slack for flips that land in a segment's dead bytes.
    EXPECT_GE(typed, 35u);
}

TEST(ArchiveFaults, FooterTruncationIsATrailerOrFooterError)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);

    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::vector<std::uint8_t> mutant = mutateArchive(
            bytes, ArchiveMutationKind::kFooterTruncate, seed);
        try {
            ArchiveReader::fromBytes(mutant);
            FAIL() << "seed " << seed
                   << ": truncated footer parsed successfully";
        } catch (const ArchiveError &e) {
            EXPECT_TRUE(e.section() == ArchiveSection::kTrailer
                        || e.section() == ArchiveSection::kFooter)
                << "seed " << seed << ": " << e.what();
        }
    }
}

TEST(ArchiveFaults, IndexCorruptionNeverEscapesDetection)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);

    unsigned rejected = 0;
    unsigned survived = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const ArchiveMutantResult r = runArchiveMutant(
            bytes, ArchiveMutationKind::kIndexCorrupt, seed);
        ASSERT_NE(r.outcome, MutantOutcome::kUnexpected)
            << "seed " << seed << ": " << r.message;
        if (r.outcome == MutantOutcome::kRejectedAtLoad)
            ++rejected;
        else
            ++survived;
    }
    // The recompressed-footer mutants pass the CRC layer by
    // construction, so every rejection here came from a semantic
    // cross-check (segment-header comparison, config validation,
    // checkpoint/GCC agreement, ...). Both buckets must be hit.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(survived, 0u);
}

/** One reader path's verdict on a file, for cross-path comparison. */
struct LoadOutcome
{
    bool ok = false;
    bool archiveError = false;
    bool formatError = false;
    ArchiveSection section = ArchiveSection::kFileHeader;
    std::size_t segment = ArchiveError::kNoSegment;
    std::string message;

    bool
    operator==(const LoadOutcome &other) const
    {
        return ok == other.ok && archiveError == other.archiveError
               && formatError == other.formatError
               && section == other.section && segment == other.segment
               && message == other.message;
    }
};

LoadOutcome
loadFileOutcome(const std::string &path, bool mmap_reads)
{
    LoadOutcome o;
    try {
        ArchiveReader::fromFile(path, ArchiveIoOptions{1, mmap_reads})
            .readAll();
        o.ok = true;
    } catch (const ArchiveError &e) {
        o.archiveError = true;
        o.section = e.section();
        o.segment = e.segment();
        o.message = e.what();
    } catch (const RecordingFormatError &e) {
        o.formatError = true;
        o.message = e.what();
    }
    return o;
}

std::string
writeTemp(const std::vector<std::uint8_t> &bytes, const char *name)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

/**
 * Failure edges of the zero-copy read path: a 0-byte file, files
 * truncated mid-segment and mid-footer, and a CRC-corrupt payload
 * must each produce the *same* typed error through the mmap reader
 * as through the buffered one (which itself matches fromBytes — the
 * sweep above certifies that).
 */
TEST(ArchiveFaults, MmapFailureEdgesMatchBufferedReads)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);
    const ArchiveReader intact = ArchiveReader::fromBytes(bytes);
    ASSERT_GE(intact.segments().size(), 2u);

    // 0-byte file: MappedFile maps it as an empty span, so both
    // paths reject it as a header error, not an open failure.
    {
        const std::string path = writeTemp({}, "edge_empty.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kFileHeader);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // Truncated mid-segment: cut inside segment 1's payload.
    {
        const std::size_t cut = static_cast<std::size_t>(
            intact.segments()[1].payloadOffset + 3);
        ASSERT_LT(cut, bytes.size());
        const std::vector<std::uint8_t> cut_bytes(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(cut));
        const std::string path =
            writeTemp(cut_bytes, "edge_midseg.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kTrailer);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // Truncated mid-footer: drop the last 8 trailer bytes.
    {
        const std::vector<std::uint8_t> cut_bytes(
            bytes.begin(),
            bytes.begin()
                + static_cast<std::ptrdiff_t>(bytes.size() - 8));
        const std::string path =
            writeTemp(cut_bytes, "edge_midfooter.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kTrailer);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // CRC-corrupt payload: flip one byte in segment 0's payload. The
    // file parses; readAll must fail with a typed segment error — on
    // both paths, with the same segment id.
    {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[static_cast<std::size_t>(
            intact.segments()[0].payloadOffset)] ^= 0x10;
        const std::string path =
            writeTemp(corrupt, "edge_crc.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kSegment);
        EXPECT_EQ(mapped.segment, 0u);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }
}

TEST(ArchiveFaults, MutationsAreDeterministic)
{
    const Recording rec = record(ModeConfig::picoLog());
    const std::vector<std::uint8_t> bytes = archive(rec);
    for (unsigned k = 0; k < kArchiveMutationKinds; ++k) {
        const auto kind = static_cast<ArchiveMutationKind>(k);
        EXPECT_EQ(mutateArchive(bytes, kind, 7),
                  mutateArchive(bytes, kind, 7))
            << archiveMutationKindName(kind);
        EXPECT_NE(mutateArchive(bytes, kind, 7), bytes)
            << archiveMutationKindName(kind);
    }
}

TEST(ArchiveFaults, SweepAccountingAddsUp)
{
    const Recording rec = record(ModeConfig::orderOnly(), 40);
    const ArchiveFaultSweepSummary sweep =
        runArchiveFaultSweep(rec, 4, 99);
    EXPECT_EQ(sweep.total, 4u * kArchiveMutationKinds);
    EXPECT_EQ(sweep.total,
              sweep.rejectedAtLoad + sweep.replayedIdentically
                  + sweep.divergenceDetected + sweep.replayErrorReported
                  + sweep.unexpected);
    EXPECT_EQ(sweep.unexpectedResults.size(), sweep.unexpected);
    EXPECT_FALSE(sweep.describe().empty());
}

} // namespace
} // namespace delorean
