#include "validate/fault_injector.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

const char *
mutationKindName(MutationKind kind)
{
    switch (kind) {
      case MutationKind::kBitFlip:
        return "bit-flip";
      case MutationKind::kTruncate:
        return "truncate";
      case MutationKind::kDuplicateWord:
        return "duplicate-word";
      case MutationKind::kReorderWords:
        return "reorder-words";
      case MutationKind::kHeaderCorrupt:
        return "header-corrupt";
      case MutationKind::kEdgeDrop:
        return "edge-drop";
      case MutationKind::kShardSeqSwap:
        return "shard-seq-swap";
      case MutationKind::kDanglingShard:
        return "dangling-shard";
    }
    return "unknown";
}

namespace
{

std::uint64_t
strU64At(const std::string &bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
    return v;
}

void
strPutU64At(std::string &bytes, std::size_t offset, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<char>(v >> (8 * i));
}

/** Where one recording's PI shard-mask section sits. */
struct MaskSection
{
    std::size_t base = 0;      ///< byte offset of the first mask word
    std::uint64_t count = 0;   ///< PI entry count (== mask count)
    unsigned shards = 1;       ///< machine numArbiters
};

/**
 * Locate the v2 shard-mask section in a serialized recording by
 * walking the fixed header layout: magic + version + machine(12) +
 * mode(7) u64s, appName string, seed, iterations, PI count, PI
 * entries, has-masks flag, masks. Returns nullopt for streams whose
 * version word is not 2, total-order streams, and anything too short
 * to hold the walk.
 */
std::optional<MaskSection>
findMaskSection(const std::string &bytes)
{
    constexpr std::size_t kHeaderU64s = 21;
    if (bytes.size() < kHeaderU64s * 8 + 8)
        return std::nullopt;
    if (strU64At(bytes, 8) != 2) // recording format version
        return std::nullopt;
    MaskSection sec;
    // numArbiters is the machine header's 12th field (offset 16 + 11*8).
    sec.shards = static_cast<unsigned>(strU64At(bytes, 104));
    const std::uint64_t name_len = strU64At(bytes, kHeaderU64s * 8);
    if (name_len > bytes.size())
        return std::nullopt;
    // seed + iterations follow the name; then the PI count.
    const std::size_t pi_count_off =
        kHeaderU64s * 8 + 8 + static_cast<std::size_t>(name_len) + 16;
    if (pi_count_off + 8 > bytes.size())
        return std::nullopt;
    sec.count = strU64At(bytes, pi_count_off);
    const std::size_t flag_off =
        pi_count_off + 8 + static_cast<std::size_t>(sec.count) * 8;
    if (flag_off + 8 > bytes.size()
        || strU64At(bytes, flag_off) != 1)
        return std::nullopt;
    sec.base = flag_off + 8;
    if (sec.base + static_cast<std::size_t>(sec.count) * 8
        > bytes.size())
        return std::nullopt;
    return sec;
}

} // namespace

const char *
mutantOutcomeName(MutantOutcome outcome)
{
    switch (outcome) {
      case MutantOutcome::kRejectedAtLoad:
        return "rejected-at-load";
      case MutantOutcome::kReplayedIdentically:
        return "replayed-identically";
      case MutantOutcome::kDivergenceDetected:
        return "divergence-detected";
      case MutantOutcome::kReplayErrorReported:
        return "replay-error-reported";
      case MutantOutcome::kUnexpected:
        return "UNEXPECTED";
    }
    return "unknown";
}

std::string
mutateSerialized(const std::string &bytes, MutationKind kind,
                 std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0xFA017EC7ull);
    std::string out = bytes;
    if (out.empty())
        return out;
    const std::uint64_t size = out.size();
    const std::uint64_t words = size / 8;

    switch (kind) {
      case MutationKind::kBitFlip: {
        const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < flips; ++i) {
            const std::uint64_t bit = rng.below(size * 8);
            out[bit / 8] = static_cast<char>(
                static_cast<unsigned char>(out[bit / 8])
                ^ (1u << (bit % 8)));
        }
        break;
      }
      case MutationKind::kTruncate:
        out.resize(rng.below(size));
        break;
      case MutationKind::kDuplicateWord: {
        if (words == 0)
            break;
        const std::uint64_t w = rng.below(words);
        out.insert(w * 8 + 8, bytes, w * 8, 8);
        break;
      }
      case MutationKind::kReorderWords: {
        if (words < 2)
            break;
        const std::uint64_t a = rng.below(words);
        std::uint64_t b = rng.below(words);
        if (a == b)
            b = (b + 1) % words;
        for (unsigned i = 0; i < 8; ++i)
            std::swap(out[a * 8 + i], out[b * 8 + i]);
        break;
      }
      case MutationKind::kHeaderCorrupt: {
        // Magic, version, machine and mode occupy the first
        // 21 u64 fields; scribble a random byte there.
        const std::uint64_t header =
            std::min<std::uint64_t>(size, 21 * 8);
        out[rng.below(header)] =
            static_cast<char>(rng.next() & 0xFF);
        break;
      }
      case MutationKind::kEdgeDrop: {
        const auto sec = findMaskSection(out);
        if (!sec || sec->count == 0)
            break;
        const std::size_t off =
            sec->base
            + static_cast<std::size_t>(rng.below(sec->count)) * 8;
        std::uint64_t mask = strU64At(out, off);
        if (mask == 0)
            break;
        // Clear a random set bit: the ordering edges through that
        // shard's arbiter vanish. An emptied mask must be rejected at
        // load; a still-valid one must replay identically or surface
        // as a localized divergence / typed replay error.
        unsigned nth =
            static_cast<unsigned>(rng.below(std::popcount(mask)));
        std::uint64_t m = mask;
        while (nth--)
            m &= m - 1;
        mask &= ~(m & ~(m - 1));
        strPutU64At(out, off, mask);
        break;
      }
      case MutationKind::kShardSeqSwap: {
        const auto sec = findMaskSection(out);
        if (!sec || sec->count < 2)
            break;
        const std::uint64_t a = rng.below(sec->count);
        std::uint64_t b = rng.below(sec->count);
        if (a == b)
            b = (b + 1) % sec->count;
        // Each mask stays individually valid, but the entries change
        // shard queues — the per-shard sequences the masks encode no
        // longer match the order the entries were actually granted.
        const std::size_t oa =
            sec->base + static_cast<std::size_t>(a) * 8;
        const std::size_t ob =
            sec->base + static_cast<std::size_t>(b) * 8;
        const std::uint64_t ma = strU64At(out, oa);
        strPutU64At(out, oa, strU64At(out, ob));
        strPutU64At(out, ob, ma);
        break;
      }
      case MutationKind::kDanglingShard: {
        const auto sec = findMaskSection(out);
        if (!sec || sec->count == 0 || sec->shards >= 64)
            break;
        const std::size_t off =
            sec->base
            + static_cast<std::size_t>(rng.below(sec->count)) * 8;
        // Name a shard outside the hierarchy; the loader's mask range
        // check must reject this.
        const std::uint64_t mask =
            strU64At(out, off)
            | (1ull << (sec->shards
                        + rng.below(64 - sec->shards)));
        strPutU64At(out, off, mask);
        break;
      }
    }
    return out;
}

void
FaultSweepSummary::add(const MutantResult &r)
{
    ++total;
    switch (r.outcome) {
      case MutantOutcome::kRejectedAtLoad:
        ++rejectedAtLoad;
        break;
      case MutantOutcome::kReplayedIdentically:
        ++replayedIdentically;
        break;
      case MutantOutcome::kDivergenceDetected:
        ++divergenceDetected;
        break;
      case MutantOutcome::kReplayErrorReported:
        ++replayErrorReported;
        break;
      case MutantOutcome::kUnexpected:
        ++unexpected;
        unexpectedResults.push_back(r);
        break;
    }
}

std::string
FaultSweepSummary::describe() const
{
    std::ostringstream out;
    out << "fault sweep: " << total << " mutants | rejected "
        << rejectedAtLoad << " | identical " << replayedIdentically
        << " | divergence " << divergenceDetected << " | replay-error "
        << replayErrorReported << " | UNEXPECTED " << unexpected;
    for (const MutantResult &r : unexpectedResults)
        out << "\n  " << mutationKindName(r.kind) << " seed " << r.seed
            << ": " << r.report.message;
    return out.str();
}

MutantResult
runMutant(const std::string &serialized, MutationKind kind,
          std::uint64_t seed, const ReplayCheckOptions &opts)
{
    MutantResult result;
    result.kind = kind;
    result.seed = seed;

    const std::string mutated = mutateSerialized(serialized, kind, seed);

    Recording mutant;
    try {
        std::istringstream in(mutated);
        mutant = loadRecording(in);
    } catch (const RecordingFormatError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message = e.what();
        return result;
    } catch (const std::exception &e) {
        // The loader's contract is RecordingFormatError only; any
        // other type is a hardening gap the sweep must surface.
        result.outcome = MutantOutcome::kUnexpected;
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message =
            std::string("loader threw non-format error: ") + e.what();
        return result;
    }

    ReplayCheckResult check;
    try {
        check = checkedReplay(mutant, opts);
    } catch (const std::exception &e) {
        result.outcome = MutantOutcome::kUnexpected;
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message =
            std::string("checkedReplay threw: ") + e.what();
        return result;
    }

    result.report = check.report;
    if (check.ok) {
        result.outcome = MutantOutcome::kReplayedIdentically;
        return result;
    }
    switch (check.report.kind) {
      case DivergenceKind::kFormatError:
      case DivergenceKind::kWorkloadError:
        result.outcome = MutantOutcome::kRejectedAtLoad;
        break;
      case DivergenceKind::kReplayError:
        result.outcome = MutantOutcome::kReplayErrorReported;
        break;
      case DivergenceKind::kCommitDivergence:
      case DivergenceKind::kMissingCommits:
      case DivergenceKind::kExtraCommits:
      case DivergenceKind::kStateDivergence:
        result.outcome = MutantOutcome::kDivergenceDetected;
        break;
      case DivergenceKind::kNone:
        result.outcome = MutantOutcome::kUnexpected;
        result.report.message =
            "checkedReplay returned !ok with an empty report";
        break;
    }
    return result;
}

FaultSweepSummary
runFaultSweep(const Recording &rec, unsigned mutants_per_kind,
              std::uint64_t seed0, const ReplayCheckOptions &opts)
{
    std::ostringstream buf;
    saveRecording(rec, buf);
    const std::string serialized = buf.str();

    FaultSweepSummary summary;
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 7919ull + i;
            summary.add(runMutant(
                serialized, static_cast<MutationKind>(k), seed, opts));
        }
    }
    return summary;
}

// ----- archive-level fault injection ----------------------------------------

const char *
archiveMutationKindName(ArchiveMutationKind kind)
{
    switch (kind) {
      case ArchiveMutationKind::kSegmentBitFlip:
        return "segment-bit-flip";
      case ArchiveMutationKind::kFooterTruncate:
        return "footer-truncate";
      case ArchiveMutationKind::kIndexCorrupt:
        return "index-corrupt";
    }
    return "unknown";
}

namespace
{

void
flipBits(std::vector<std::uint8_t> &bytes, std::size_t begin,
         std::size_t end, Xoshiro256ss &rng)
{
    if (end <= begin)
        return;
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
    const std::uint64_t span = (end - begin) * 8;
    for (unsigned i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.below(span);
        bytes[begin + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

std::uint64_t
u64At(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    return archive_detail::readU64At(bytes.data(), offset);
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

} // namespace

std::vector<std::uint8_t>
mutateArchive(const std::vector<std::uint8_t> &bytes,
              ArchiveMutationKind kind, std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0xA2C817EC7ull);
    std::vector<std::uint8_t> out = bytes;
    if (out.size() < 56) {
        // Too small to carry any structure; degrade to a bit flip.
        flipBits(out, 0, out.size(), rng);
        return out;
    }
    // Trailer: the index record's offset, then the end magic.
    const std::size_t trailer = out.size() - 16;
    const std::size_t index_off = static_cast<std::size_t>(
        std::min<std::uint64_t>(u64At(out, trailer), trailer));

    switch (kind) {
      case ArchiveMutationKind::kSegmentBitFlip: {
        // Aim at one segment's compressed payload via the archive's
        // own index so the flip never lands in a header or the index.
        try {
            const ArchiveReader reader = ArchiveReader::fromBytes(out);
            const auto &segs = reader.segments();
            const SegmentInfo &seg =
                segs[static_cast<std::size_t>(rng.below(segs.size()))];
            const std::size_t begin =
                static_cast<std::size_t>(seg.payloadOffset);
            flipBits(out, begin,
                     begin + static_cast<std::size_t>(seg.compBytes),
                     rng);
        } catch (const std::exception &) {
            flipBits(out, 0, out.size(), rng);
        }
        break;
      }
      case ArchiveMutationKind::kFooterTruncate: {
        // Cut somewhere inside the index record or the trailer.
        out.resize(index_off + rng.below(out.size() - index_off));
        break;
      }
      case ArchiveMutationKind::kIndexCorrupt: {
        // Make the index record or one segment header lie while every
        // size and CRC still holds, so the checksum layer passes and
        // the reader's semantic cross-checks are what must catch it.
        try {
            const ArchiveReader reader = ArchiveReader::fromBytes(out);
            constexpr std::size_t kBlobPreamble = 40;
            std::size_t index = index_off;
            const auto reseal_index = [&out, &index] {
                const std::size_t blob = index + kBlobPreamble;
                putU64At(out, index + 32,
                         crc32(out.data() + blob,
                               out.size() - 16 - blob));
            };
            if (rng.below(2) == 0) {
                // Scribble on the index blob: the live list (segment
                // ids and record sizes) or the final stats.
                const std::size_t blob = index + kBlobPreamble;
                out[blob + rng.below(out.size() - 16 - blob)] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
                reseal_index();
                break;
            }
            // Scribble on one segment's decompressed header, then
            // recompress it and fix up its preamble, its index entry
            // and the trailer for the new header size.
            const auto &segs = reader.segments();
            const std::size_t k =
                static_cast<std::size_t>(rng.below(segs.size()));
            const std::size_t rec =
                static_cast<std::size_t>(segs[k].recordOffset);
            const std::size_t comp_at = rec + 48;
            const std::size_t comp_size =
                static_cast<std::size_t>(u64At(out, rec + 32));
            std::vector<std::uint8_t> raw =
                Lz77().decompress(out.data() + comp_at, comp_size);
            raw[rng.below(raw.size())] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
            Lz77Stream stream;
            stream.append(raw);
            const std::vector<std::uint8_t> comp = stream.finish();
            out.erase(out.begin() + static_cast<std::ptrdiff_t>(comp_at),
                      out.begin()
                          + static_cast<std::ptrdiff_t>(comp_at
                                                        + comp_size));
            out.insert(out.begin() + static_cast<std::ptrdiff_t>(comp_at),
                       comp.begin(), comp.end());
            putU64At(out, rec + 24, raw.size());
            putU64At(out, rec + 32, comp.size());
            putU64At(out, rec + 40, crc32(comp.data(), comp.size()));
            index = index + comp.size() - comp_size;
            const std::size_t entry = index + kBlobPreamble + 16 + 16 * k;
            putU64At(out, entry + 8,
                     u64At(out, entry + 8) + comp.size() - comp_size);
            reseal_index();
            putU64At(out, out.size() - 16, index);
        } catch (const std::exception &) {
            flipBits(out, index_off, out.size(), rng);
        }
        break;
      }
    }
    return out;
}

void
ArchiveFaultSweepSummary::add(const ArchiveMutantResult &r)
{
    ++total;
    switch (r.outcome) {
      case MutantOutcome::kRejectedAtLoad:
        ++rejectedAtLoad;
        break;
      case MutantOutcome::kReplayedIdentically:
        ++replayedIdentically;
        break;
      case MutantOutcome::kDivergenceDetected:
        ++divergenceDetected;
        break;
      case MutantOutcome::kReplayErrorReported:
        ++replayErrorReported;
        break;
      case MutantOutcome::kUnexpected:
        ++unexpected;
        unexpectedResults.push_back(r);
        break;
    }
}

std::string
ArchiveFaultSweepSummary::describe() const
{
    std::ostringstream out;
    out << "archive fault sweep: " << total << " mutants | rejected "
        << rejectedAtLoad << " | identical " << replayedIdentically
        << " | divergence " << divergenceDetected << " | replay-error "
        << replayErrorReported << " | UNEXPECTED " << unexpected;
    for (const ArchiveMutantResult &r : unexpectedResults)
        out << "\n  " << archiveMutationKindName(r.kind) << " seed "
            << r.seed << ": " << r.message;
    return out.str();
}

namespace
{

/** Severity order for combining the readAll and interval legs. */
int
outcomeSeverity(MutantOutcome outcome)
{
    switch (outcome) {
      case MutantOutcome::kReplayedIdentically:
        return 0;
      case MutantOutcome::kRejectedAtLoad:
        return 1;
      case MutantOutcome::kReplayErrorReported:
        return 2;
      case MutantOutcome::kDivergenceDetected:
        return 3;
      case MutantOutcome::kUnexpected:
        return 4;
    }
    return 4;
}

/**
 * Classify one recording pulled out of a mutant archive: checked
 * replay with every failure fenced, exactly like runMutant's tail.
 */
MutantOutcome
classifyRecording(const Recording &rec, const ReplayCheckOptions &opts,
                  std::string &message)
{
    ReplayCheckResult check;
    try {
        check = checkedReplay(rec, opts);
    } catch (const std::exception &e) {
        message = std::string("checkedReplay threw: ") + e.what();
        return MutantOutcome::kUnexpected;
    }
    if (check.ok)
        return MutantOutcome::kReplayedIdentically;
    message = check.report.message;
    switch (check.report.kind) {
      case DivergenceKind::kFormatError:
      case DivergenceKind::kWorkloadError:
        return MutantOutcome::kRejectedAtLoad;
      case DivergenceKind::kReplayError:
        return MutantOutcome::kReplayErrorReported;
      case DivergenceKind::kCommitDivergence:
      case DivergenceKind::kMissingCommits:
      case DivergenceKind::kExtraCommits:
      case DivergenceKind::kStateDivergence:
        return MutantOutcome::kDivergenceDetected;
      case DivergenceKind::kNone:
        message = "checkedReplay returned !ok with an empty report";
        return MutantOutcome::kUnexpected;
    }
    return MutantOutcome::kUnexpected;
}

#if defined(__unix__) || defined(__APPLE__)
#define DELOREAN_FAULT_TMPFILE 1
#else
#define DELOREAN_FAULT_TMPFILE 0
#endif

#if DELOREAN_FAULT_TMPFILE
/**
 * Scratch file for the mmap sweep leg. Unlinked on destruction; on
 * POSIX an mmap of the file stays valid after the unlink, so the
 * reader may outlive this object.
 */
struct TempArchiveFile
{
    std::string path;
    bool ok = false;

    explicit TempArchiveFile(const std::vector<std::uint8_t> &bytes)
    {
        char name[] = "/tmp/delorean-mutant-XXXXXX";
        const int fd = ::mkstemp(name);
        if (fd < 0)
            return;
        path = name;
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t w = ::write(fd, bytes.data() + off,
                                      bytes.size() - off);
            if (w <= 0) {
                ::close(fd);
                return;
            }
            off += static_cast<std::size_t>(w);
        }
        ::close(fd);
        ok = true;
    }

    ~TempArchiveFile()
    {
        if (!path.empty())
            ::unlink(path.c_str());
    }
};
#endif

/** Open the mutant through the requested reader entry point. */
ArchiveReader
loadMutant(const std::vector<std::uint8_t> &mutated,
           ArchiveLoadPath load_path)
{
#if DELOREAN_FAULT_TMPFILE
    if (load_path == ArchiveLoadPath::kMmapFile) {
        const TempArchiveFile tmp(mutated);
        if (tmp.ok)
            return ArchiveReader::fromFile(tmp.path, {});
    }
#else
    (void)load_path;
#endif
    return ArchiveReader::fromBytes(mutated);
}

} // namespace

ArchiveMutantResult
runArchiveMutant(const std::vector<std::uint8_t> &archive,
                 ArchiveMutationKind kind, std::uint64_t seed,
                 const ReplayCheckOptions &opts,
                 ArchiveLoadPath load_path)
{
    ArchiveMutantResult result;
    result.kind = kind;
    result.seed = seed;

    const std::vector<std::uint8_t> mutated =
        mutateArchive(archive, kind, seed);

    // Leg 1: parse + readAll + checked replay.
    Recording full;
    std::size_t checkpoints = 0;
    std::optional<ArchiveReader> reader;
    try {
        reader = loadMutant(mutated, load_path);
        checkpoints = reader->checkpointCount();
        full = reader->readAll();
    } catch (const ArchiveError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.typedArchiveError = true;
        result.segment = e.segment();
        result.message = e.what();
        return result;
    } catch (const RecordingFormatError &e) {
        // validateRecording() inside readAll — still a typed, fenced
        // rejection, just without section attribution.
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.message = e.what();
        return result;
    } catch (const std::exception &e) {
        result.outcome = MutantOutcome::kUnexpected;
        result.message =
            std::string("archive reader threw non-format error: ")
            + e.what();
        return result;
    }

    result.outcome = classifyRecording(full, opts, result.message);
    if (result.outcome == MutantOutcome::kUnexpected)
        return result;

    // Leg 2: interval replay through the (possibly lying) index. Only
    // reachable when the mutant still parses; a corrupt index must
    // surface as a typed rejection or a localized divergence here,
    // never a crash.
    if (checkpoints > 0) {
        const std::size_t from =
            static_cast<std::size_t>(seed % checkpoints);
        MutantOutcome interval = MutantOutcome::kReplayedIdentically;
        std::string interval_message;
        try {
            const Recording view = reader->readInterval(from);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            // The race detector needs the complete commit history;
            // detector sweeps still fence this leg, just detector-off.
            iopts.detectRaces = false;
            interval =
                classifyRecording(view, iopts, interval_message);
        } catch (const ArchiveError &e) {
            interval = MutantOutcome::kRejectedAtLoad;
            result.typedArchiveError = true;
            result.segment = e.segment();
            interval_message = e.what();
        } catch (const RecordingFormatError &e) {
            interval = MutantOutcome::kRejectedAtLoad;
            interval_message = e.what();
        } catch (const std::exception &e) {
            interval = MutantOutcome::kUnexpected;
            interval_message =
                std::string("readInterval threw non-format error: ")
                + e.what();
        }
        if (outcomeSeverity(interval) > outcomeSeverity(result.outcome)
            || (interval != MutantOutcome::kReplayedIdentically
                && result.message.empty())) {
            result.outcome = interval;
            result.message = interval_message;
        }
    }
    return result;
}

ArchiveFaultSweepSummary
runArchiveFaultSweep(const Recording &rec, unsigned mutants_per_kind,
                     std::uint64_t seed0,
                     const ReplayCheckOptions &opts,
                     ArchiveLoadPath load_path)
{
    std::ostringstream buf;
    writeArchive(rec, buf);
    const std::string s = std::move(buf).str();
    const std::vector<std::uint8_t> archive(s.begin(), s.end());

    ArchiveFaultSweepSummary summary;
    for (unsigned k = 0; k < kArchiveMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 104'729ull + i;
            summary.add(runArchiveMutant(
                archive, static_cast<ArchiveMutationKind>(k), seed,
                opts, load_path));
        }
    }
    return summary;
}

// ----- ring-level fault injection -------------------------------------------

const char *
ringMutationKindName(RingMutationKind kind)
{
    switch (kind) {
      case RingMutationKind::kEvictedGap:
        return "evicted-gap";
      case RingMutationKind::kTornTail:
        return "torn-tail";
      case RingMutationKind::kStaleIndex:
        return "stale-index";
    }
    return "unknown";
}

namespace
{

namespace fs = std::filesystem;

/** Segment files of @p dir, name-sorted (== segId-sorted). */
std::vector<fs::path>
ringSegmentFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind("seg-", 0) == 0)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * Rewrite ring.index with a *valid* CRC over falsified contents: flip
 * the clean flag or perturb one live-set entry, then recompute the
 * checksum. The reader's scan cross-check — not the CRC — must catch
 * the lie.
 */
void
writeLyingIndex(const std::string &path, Xoshiro256ss &rng)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    constexpr std::size_t kPreamble = 40;
    if (bytes.size() < kPreamble + 16)
        return; // too short to lie about; leave as-is
    std::uint8_t *blob = bytes.data() + kPreamble;
    const std::size_t blob_size = bytes.size() - kPreamble;

    auto u64_at = [&](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(blob[off + i]) << (8 * i);
        return v;
    };
    auto put_at = [&](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            blob[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };

    const std::uint64_t count = u64_at(8);
    const std::size_t entries_end = 16 + 16 * count;
    bool lied = false;
    if (count > 0 && entries_end <= blob_size && rng.next() % 2 == 0) {
        // Falsify one retained entry: wrong size or wrong id.
        const std::size_t victim = rng.next() % count;
        const std::size_t off =
            16 + 16 * victim + (rng.next() % 2 ? 8 : 0);
        put_at(off, u64_at(off) + 1 + rng.next() % 1024);
        lied = true;
    }
    if (!lied)
        put_at(0, u64_at(0) ^ 1); // flip the clean flag
    // Recompute the preamble CRC so the checksum passes.
    std::uint64_t c = crc32(blob, blob_size);
    for (int i = 0; i < 8; ++i)
        bytes[32 + i] = static_cast<std::uint8_t>(c >> (8 * i));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

void
mutateRing(const std::string &dir, RingMutationKind kind,
           std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0x51BAD5EEDull);
    const std::vector<fs::path> segs = ringSegmentFiles(dir);
    switch (kind) {
      case RingMutationKind::kEvictedGap: {
        if (segs.empty())
            return;
        // Never the newest: model history rotting out from under the
        // window, not a tail crash (that is kTornTail's job).
        const std::size_t victims =
            segs.size() > 1 ? segs.size() - 1 : 1;
        fs::remove(segs[rng.next() % victims]);
        break;
      }
      case RingMutationKind::kTornTail: {
        if (segs.empty())
            return;
        const fs::path &tail = segs.back();
        const std::uintmax_t size = fs::file_size(tail);
        fs::resize_file(tail, size ? rng.next() % size : 0);
        break;
      }
      case RingMutationKind::kStaleIndex: {
        const std::string index = dir + "/ring.index";
        switch (rng.next() % 3) {
          case 0:
            fs::remove(index);
            break;
          case 1: {
            // Scribble: CRC (or structure) check must reject it.
            std::fstream f(index, std::ios::binary | std::ios::in
                                      | std::ios::out);
            if (!f)
                break;
            f.seekg(0, std::ios::end);
            const std::uint64_t size =
                static_cast<std::uint64_t>(f.tellg());
            const unsigned flips = 1 + rng.next() % 8;
            for (unsigned i = 0; i < flips && size; ++i) {
                const std::uint64_t off = rng.next() % size;
                f.seekg(static_cast<std::streamoff>(off));
                char byte = 0;
                f.read(&byte, 1);
                byte ^= static_cast<char>(1u << (rng.next() % 8));
                f.seekp(static_cast<std::streamoff>(off));
                f.write(&byte, 1);
            }
            break;
          }
          default:
            writeLyingIndex(index, rng);
            break;
        }
        break;
      }
    }
}

void
RingFaultSweepSummary::add(const RingMutantResult &r)
{
    ++total;
    if (r.salvaged)
        ++salvaged;
    switch (r.outcome) {
      case MutantOutcome::kRejectedAtLoad:
        ++rejectedAtLoad;
        break;
      case MutantOutcome::kReplayedIdentically:
        ++replayedIdentically;
        break;
      case MutantOutcome::kDivergenceDetected:
        ++divergenceDetected;
        break;
      case MutantOutcome::kReplayErrorReported:
        ++replayErrorReported;
        break;
      case MutantOutcome::kUnexpected:
        ++unexpected;
        unexpectedResults.push_back(r);
        break;
    }
}

std::string
RingFaultSweepSummary::describe() const
{
    std::ostringstream out;
    out << "ring fault sweep: " << total << " mutants | rejected "
        << rejectedAtLoad << " | identical " << replayedIdentically
        << " | divergence " << divergenceDetected << " | replay-error "
        << replayErrorReported << " | salvaged " << salvaged
        << " | UNEXPECTED " << unexpected;
    for (const RingMutantResult &r : unexpectedResults)
        out << "\n  " << ringMutationKindName(r.kind) << " seed "
            << r.seed << ": " << r.message;
    return out.str();
}

RingMutantResult
runRingMutant(const std::string &ring_dir, RingMutationKind kind,
              std::uint64_t seed, const ReplayCheckOptions &opts)
{
    RingMutantResult result;
    result.kind = kind;
    result.seed = seed;

    // Scratch copy, deterministic name per (kind, seed).
    const fs::path scratch =
        fs::temp_directory_path()
        / ("delorean-ring-mutant-"
           + std::to_string(static_cast<unsigned>(kind)) + "-"
           + std::to_string(seed));
    std::error_code ec;
    fs::remove_all(scratch, ec);
    try {
        fs::copy(ring_dir, scratch, fs::copy_options::recursive);
        mutateRing(scratch.string(), kind, seed);
    } catch (const std::exception &e) {
        fs::remove_all(scratch, ec);
        result.message =
            std::string("mutation setup failed: ") + e.what();
        return result;
    }

    std::optional<RingArchiveReader> ring;
    try {
        ring = RingArchiveReader::open(scratch.string());
    } catch (const ArchiveError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.message = e.what();
        fs::remove_all(scratch, ec);
        return result;
    } catch (const std::exception &e) {
        result.outcome = MutantOutcome::kUnexpected;
        result.message =
            std::string("ring open threw non-archive error: ")
            + e.what();
        fs::remove_all(scratch, ec);
        return result;
    }

    result.salvaged = !ring->recovery().usedIndex
                      || ring->recovery().droppedSegments > 0;
    result.droppedSegments = ring->recovery().droppedSegments;

    // Replay whatever window recovery retained. A window too small to
    // bound (fewer than two checkpoints, e.g. a lone tail survivor)
    // has nothing to verify: the salvage itself is the result.
    result.outcome = MutantOutcome::kReplayedIdentically;
    const std::size_t checkpoints = ring->checkpointCount();
    if (checkpoints >= 2) {
        const std::size_t from = seed % (checkpoints - 1);
        try {
            const Recording view =
                ring->readInterval(from, from + 1);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            iopts.stopCheckpoint = 1;
            iopts.detectRaces = false;
            result.outcome =
                classifyRecording(view, iopts, result.message);
        } catch (const ArchiveError &e) {
            result.outcome = MutantOutcome::kRejectedAtLoad;
            result.message = e.what();
        } catch (const RecordingFormatError &e) {
            result.outcome = MutantOutcome::kRejectedAtLoad;
            result.message = e.what();
        } catch (const std::exception &e) {
            result.outcome = MutantOutcome::kUnexpected;
            result.message = std::string(
                                 "ring readInterval threw non-format "
                                 "error: ")
                             + e.what();
        }
    }

    // Unbounded leg: only meaningful when the mutant still claims a
    // clean close (a lying index may); it must either replay or fail
    // typed.
    if (result.outcome != MutantOutcome::kUnexpected
        && ring->recovery().clean && checkpoints >= 1) {
        MutantOutcome tail = MutantOutcome::kReplayedIdentically;
        std::string tail_message;
        try {
            const Recording view =
                ring->readInterval(checkpoints - 1);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            iopts.detectRaces = false;
            tail = classifyRecording(view, iopts, tail_message);
        } catch (const ArchiveError &e) {
            tail = MutantOutcome::kRejectedAtLoad;
            tail_message = e.what();
        } catch (const RecordingFormatError &e) {
            tail = MutantOutcome::kRejectedAtLoad;
            tail_message = e.what();
        } catch (const std::exception &e) {
            tail = MutantOutcome::kUnexpected;
            tail_message =
                std::string("ring unbounded read threw non-format "
                            "error: ")
                + e.what();
        }
        if (outcomeSeverity(tail) > outcomeSeverity(result.outcome)) {
            result.outcome = tail;
            result.message = tail_message;
        }
    }

    fs::remove_all(scratch, ec);
    return result;
}

RingFaultSweepSummary
runRingFaultSweep(const Recording &rec, unsigned mutants_per_kind,
                  std::uint64_t seed0, const ReplayCheckOptions &opts,
                  const RingOptions &ring_opts)
{
    const fs::path source =
        fs::temp_directory_path()
        / ("delorean-ring-sweep-" + std::to_string(seed0));
    std::error_code ec;
    fs::remove_all(source, ec);
    writeRing(rec, source.string(), ring_opts);

    RingFaultSweepSummary summary;
    for (unsigned k = 0; k < kRingMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 104'729ull + i;
            summary.add(runRingMutant(source.string(),
                                      static_cast<RingMutationKind>(k),
                                      seed, opts));
        }
    }
    fs::remove_all(source, ec);
    return summary;
}

} // namespace delorean
