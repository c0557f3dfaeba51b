#include "store/ring.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/errors.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "sim/campaign.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::getCheckpoint;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putU64;

using namespace archive_detail;

namespace
{

constexpr std::uint64_t kRingMetaMagic = 0x2E676E526F4C6544ull; // "DeLoRng."
constexpr std::uint64_t kRingSegMagic = 0x676553526F4C6544ull;  // "DeLoRSeg"
constexpr std::uint64_t kRingIdxMagic = 0x786449526F4C6544ull;  // "DeLoRIdx"
constexpr std::uint64_t kRingVersion = 1;
/// Fixed meta/index preamble: magic, version, reserved, blob size,
/// blob CRC-32.
constexpr std::size_t kPreambleBytes = 40;
/// Segment preamble: magic, version, segId, header raw size, header
/// compressed size, header CRC-32 (of the compressed bytes). The
/// header blob is followed by the start- and end-checkpoint blobs it
/// describes (each independently LZ77-compressed and CRC'd), then the
/// payload. Keeping the checkpoint images out of the header lets the
/// writer compress each checkpoint exactly once: the blob that closes
/// segment i is byte-reused as the start blob of segment i+1.
constexpr std::size_t kSegPreambleBytes = 48;
/// Header/meta/index blob size cap: fences OOM on garbage files.
constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;
/// Sanity fence on index entry counts (mirrors the .dla segment cap).
constexpr std::uint64_t kMaxSegmentsPerRing = 1ull << 20;

std::string
segFileName(std::uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg-%012llu",
                  static_cast<unsigned long long>(id));
    return buf;
}

void
putBlob(std::ostream &out, const std::vector<std::uint8_t> &bytes)
{
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Write preamble + blob to @p path via temp + atomic rename. */
void
writeBlobFileAtomic(const std::string &path, std::uint64_t magic,
                    std::uint64_t seg_id, const std::string &blob)
{
    const std::string tmp = path + ".tmp";
    writeFileChecked(tmp, [&](std::ostream &out) {
        putU64(out, magic);
        putU64(out, kRingVersion);
        putU64(out, seg_id);
        putU64(out, blob.size());
        putU64(out, crc32(reinterpret_cast<const std::uint8_t *>(
                              blob.data()),
                          blob.size()));
        out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    });
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw ArchiveWriteError("failed to rename " + tmp + " to "
                                + path);
}

/**
 * Check a ring.meta / ring.index preamble (magic, version, blob size,
 * CRC) and point @p in at its blob. Returns why the file is unusable,
 * or an empty string.
 */
std::string
openBlobFile(const std::vector<std::uint8_t> &bytes, std::uint64_t magic,
             std::istringstream &in)
{
    if (bytes.size() < kPreambleBytes || readU64At(bytes.data(), 0) != magic)
        return "magic missing (not a DeLorean ring archive?)";
    if (readU64At(bytes.data(), 8) != kRingVersion)
        return "unsupported ring version "
               + std::to_string(readU64At(bytes.data(), 8));
    const std::uint64_t size = readU64At(bytes.data(), 24);
    if (size > kMaxBlobBytes || kPreambleBytes + size != bytes.size())
        return "truncated";
    if (crc32(bytes.data() + kPreambleBytes,
              static_cast<std::size_t>(size))
        != readU64At(bytes.data(), 32))
        return "CRC mismatch";
    in.str(std::string(reinterpret_cast<const char *>(bytes.data())
                           + kPreambleBytes,
                       static_cast<std::size_t>(size)));
    return "";
}

} // namespace

// ----- options --------------------------------------------------------------

std::uint64_t
RingOptions::resolvedLag() const
{
    return maxReplayLag ? maxReplayLag : 2 * checkpointPeriod;
}

void
RingOptions::validate() const
{
    if (checkpointPeriod == 0)
        throw ConfigError("ring checkpointPeriod must be positive");
    if (budgetBytes == 0)
        throw ConfigError("ring budgetBytes must be positive");
    if (checkpointPeriod > (1ull << 62))
        throw ConfigError("ring checkpointPeriod is implausibly large");
    if (resolvedLag() < 2 * checkpointPeriod)
        throw ConfigError(
            "ring maxReplayLag T=" + std::to_string(resolvedLag())
            + " is infeasible: with checkpoints every P="
            + std::to_string(checkpointPeriod)
            + " commits the newest durable replay starting point can "
              "lag the frontier by up to 2P-1 commits; require "
              "T >= 2P = "
            + std::to_string(2 * checkpointPeriod));
}

// ----- writer ---------------------------------------------------------------

namespace
{

/**
 * The ring sink: one self-describing file per segment, carrying its
 * start and end checkpoint images; over-budget history is evicted
 * oldest first and ring.index is atomically rewritten after every
 * batch.
 */
class RingSink final : public SegmentSink
{
  public:
    RingSink(std::string d, const RingOptions &o)
        : dir(std::move(d)), opts(o)
    {
    }

    void
    begin(const Recording &rec) override
    {
        namespace fs = std::filesystem;
        fs::create_directories(dir);
        // A ring directory belongs to one run: clear leftovers so a
        // reader never stitches two runs together.
        for (const auto &entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("seg-", 0) == 0 || name.rfind("ring.", 0) == 0)
                fs::remove(entry.path());
        }
        std::ostringstream blob(std::ios::binary);
        putRunInfo(blob, rec);
        putU64(blob, opts.budgetBytes);
        putU64(blob, opts.checkpointPeriod);
        putU64(blob, opts.resolvedLag());
        writeBlobFileAtomic(dir + "/ring.meta", kRingMetaMagic, 0,
                            std::move(blob).str());
    }

    /**
     * The end checkpoint image, compressed exactly once: the blob
     * closing segment i doubles as the start blob of segment i+1
     * (prev_end carries it across batches).
     */
    void
    encodeExtra(StagedSegment &seg) override
    {
        if (!seg.info.hasCheckpoint)
            return;
        std::ostringstream b(std::ios::binary);
        putCheckpoint(b, seg.info.checkpoint);
        seg.extra = encodeBlob(std::move(b).str());
    }

    void
    commit(std::vector<StagedSegment> &batch) override
    {
        for (StagedSegment &seg : batch) {
            const bool has_start = seg.index > 0;
            const bool has_end = seg.info.hasCheckpoint;
            EncodedBlob start;
            if (has_start) {
                if (prev_end.comp.empty())
                    throw std::logic_error(
                        "ring segment cut out of order: no cached "
                        "start checkpoint");
                start = std::move(prev_end);
            }
            // Self-describing header: the GCC interval plus the sizes
            // and CRCs of the blobs that follow it in the file.
            std::ostringstream hb(std::ios::binary);
            putU64(hb, seg.startGcc);
            putU64(hb, seg.info.endGcc);
            putU64(hb, has_end ? 0 : 1); // tail flag
            const auto put_blob_ref = [&hb](bool present,
                                            const EncodedBlob &blob) {
                putU64(hb, present ? 1 : 0);
                if (present) {
                    putU64(hb, blob.rawBytes);
                    putU64(hb, blob.comp.size());
                    putU64(hb, blob.crc);
                }
            };
            put_blob_ref(has_start, start);
            put_blob_ref(has_end, seg.extra);
            putU64(hb, seg.info.rawBytes);
            putU64(hb, seg.info.compBytes);
            putU64(hb, seg.info.crc32);
            const EncodedBlob header = encodeBlob(std::move(hb).str());

            // Written in place, not via rename: only the newest file
            // can ever be torn, which is exactly the crash shape the
            // reader's salvage path handles.
            writeFileChecked(
                dir + "/" + segFileName(seg.index), [&](std::ostream &out) {
                    putU64(out, kRingSegMagic);
                    putU64(out, kRingVersion);
                    putU64(out, seg.index);
                    putU64(out, header.rawBytes);
                    putU64(out, header.comp.size());
                    putU64(out, header.crc);
                    putBlob(out, header.comp);
                    putBlob(out, start.comp);
                    putBlob(out, seg.extra.comp);
                    putBlob(out, seg.payload.comp);
                });
            const std::uint64_t file_bytes =
                kSegPreambleBytes + header.comp.size()
                + start.comp.size() + seg.extra.comp.size()
                + seg.payload.comp.size();
            if (has_end)
                prev_end = std::move(seg.extra);
            std::vector<std::uint8_t>().swap(seg.payload.comp);
            account(seg, file_bytes);
        }
        writeIndex(nullptr);
    }

    /**
     * Rewrite ring.index (temp + rename). @p rec supplies the final
     * stats for the clean index written at close; nullptr writes a
     * progress snapshot.
     */
    void
    writeIndex(const Recording *rec)
    {
        std::ostringstream blob(std::ios::binary);
        putU64(blob, rec ? 1 : 0);
        {
            std::lock_guard<std::mutex> lock(mu);
            putU64(blob, live.size());
            for (const LiveSeg &seg : live) {
                putU64(blob, seg.segId);
                putU64(blob, seg.fileBytes);
            }
        }
        if (rec)
            putFinalStats(blob, *rec);
        writeBlobFileAtomic(dir + "/ring.index", kRingIdxMagic, 0,
                            std::move(blob).str());
    }

    RingWriterStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return statsd;
    }

    const std::string dir;

  private:
    /** Lag bookkeeping, then evict over-budget history. */
    void
    account(const StagedSegment &seg, std::uint64_t file_bytes)
    {
        std::vector<std::uint64_t> evict_ids;
        {
            std::lock_guard<std::mutex> lock(mu);
            // While this segment recorded, the newest durable start
            // was the previous segment's.
            const std::uint64_t lag =
                seg.info.endGcc - (have_durable ? newest_start_gcc : 0);
            statsd.worstStartLag = std::max(statsd.worstStartLag, lag);
            statsd.maxCheckpointSpacing =
                std::max(statsd.maxCheckpointSpacing,
                         seg.info.endGcc - seg.startGcc);
            have_durable = true;
            newest_start_gcc = seg.startGcc;

            live.push_back({seg.index, file_bytes});
            ++statsd.segmentsCut;
            statsd.bytesWritten += file_bytes;
            statsd.liveBytes += file_bytes;
            while (statsd.liveBytes > opts.budgetBytes
                   && live.size() > 1) {
                const LiveSeg victim = live.front();
                live.pop_front();
                statsd.liveBytes -= victim.fileBytes;
                ++statsd.segmentsEvicted;
                evict_ids.push_back(victim.segId);
            }
            if (statsd.liveBytes > opts.budgetBytes)
                ++statsd.budgetOverruns;
        }
        for (const std::uint64_t id : evict_ids)
            std::remove((dir + "/" + segFileName(id)).c_str());
    }

    const RingOptions opts;

    struct LiveSeg
    {
        std::uint64_t segId = 0;
        std::uint64_t fileBytes = 0;
    };
    /// Guards live and statsd, which stats() reads while the flusher
    /// commits.
    mutable std::mutex mu;
    std::deque<LiveSeg> live; ///< retained on-disk segments, oldest first
    RingWriterStats statsd;
    EncodedBlob prev_end; ///< newest end checkpoint, the next start
    std::uint64_t newest_start_gcc = 0; ///< of newest durable segment
    bool have_durable = false;
};

} // namespace

struct RingArchiveWriter::Impl
{
    RingSink sink;
    SegmentPipeline pipeline;

    Impl(const std::string &dir, const RingOptions &opts)
        : sink(dir, opts), pipeline(sink, opts.io, "RingArchiveWriter")
    {
    }
};

RingArchiveWriter::RingArchiveWriter(const std::string &dir,
                                     const RingOptions &opts)
    : impl_(std::make_unique<Impl>(dir, opts))
{
    opts.validate();
}

RingArchiveWriter::~RingArchiveWriter() = default;

void
RingArchiveWriter::onCheckpoint(const Recording &rec)
{
    impl_->pipeline.onCheckpoint(rec);
}

void
RingArchiveWriter::close(const Recording &rec)
{
    impl_->pipeline.finish(rec);
    impl_->sink.writeIndex(&rec);
}

bool
RingArchiveWriter::closed() const
{
    return impl_->pipeline.closed();
}

const std::string &
RingArchiveWriter::directory() const
{
    return impl_->sink.dir;
}

RingWriterStats
RingArchiveWriter::stats() const
{
    return impl_->sink.stats();
}

RingWriterStats
writeRing(const Recording &rec, const std::string &dir,
          const RingOptions &opts)
{
    RingArchiveWriter writer(dir, opts);
    writer.onCheckpoint(rec);
    writer.close(rec);
    return writer.stats();
}

// ----- reader ---------------------------------------------------------------

namespace
{

/** One scanned segment file before the contiguity walk. */
struct ScannedSegment
{
    RingSegmentInfo info;
    std::string path;
    std::uint64_t payloadOff = 0;
};

/**
 * Parse one candidate segment file. Returns why it is structurally
 * invalid (torn, corrupt, or lying about itself) — the salvage path
 * drops it — or an empty string when it is sound.
 */
std::string
scanSegmentFile(const std::string &path, unsigned n, ScannedSegment &out)
{
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, bytes))
        return "unreadable";
    if (bytes.size() < kSegPreambleBytes)
        return "shorter than a segment preamble";
    if (readU64At(bytes.data(), 0) != kRingSegMagic)
        return "segment magic missing";
    if (readU64At(bytes.data(), 8) != kRingVersion)
        return "unsupported segment version";
    const std::uint64_t seg_id = readU64At(bytes.data(), 16);
    const std::uint64_t blob_raw = readU64At(bytes.data(), 24);
    const std::uint64_t blob_comp = readU64At(bytes.data(), 32);
    if (blob_raw > kMaxBlobBytes || blob_comp > kMaxBlobBytes
        || kSegPreambleBytes + blob_comp > bytes.size())
        return "torn header";

    RingSegmentInfo info;
    info.segId = seg_id;
    std::uint64_t off = kSegPreambleBytes;
    // Inflate the blob at off (header, then the checkpoint images).
    const auto next = [&](std::uint64_t comp_n, std::uint64_t crc,
                          std::uint64_t raw_n, const char *what) {
        const std::vector<std::uint8_t> raw =
            inflate(bytes.data() + off, comp_n, crc, raw_n,
                    ArchiveSection::kSegment, seg_id, what);
        off += comp_n;
        return std::istringstream(
            std::string(reinterpret_cast<const char *>(raw.data()),
                        raw.size()),
            std::ios::binary);
    };
    try {
        std::istringstream in =
            next(blob_comp, readU64At(bytes.data(), 40), blob_raw,
                 "header");
        info.startGcc = getU64(in);
        info.endGcc = getU64(in);
        info.isTail = getU64(in) != 0;
        std::uint64_t start[3] = {}; // raw size, comp size, CRC
        std::uint64_t end[3] = {};
        info.hasStartCheckpoint = getU64(in) != 0;
        if (info.hasStartCheckpoint)
            for (std::uint64_t &v : start)
                v = getU64(in);
        info.hasEndCheckpoint = getU64(in) != 0;
        if (info.hasEndCheckpoint)
            for (std::uint64_t &v : end)
                v = getU64(in);
        info.rawBytes = getU64(in);
        info.compBytes = getU64(in);
        info.crc32 = getU64(in);

        // Everything the header promises must fit the file exactly:
        // header, start blob, end blob, payload, nothing else.
        if (start[0] > kMaxBlobBytes || start[1] > kMaxBlobBytes
            || end[0] > kMaxBlobBytes || end[1] > kMaxBlobBytes)
            return "implausible checkpoint blob size";
        if (off + start[1] + end[1] + info.compBytes != bytes.size())
            return "file size disagrees with the header (torn payload?)";
        if (info.hasStartCheckpoint) {
            std::istringstream c =
                next(start[1], start[2], start[0], "start checkpoint");
            info.startCheckpoint = getCheckpoint(c);
        }
        if (info.hasEndCheckpoint) {
            std::istringstream c =
                next(end[1], end[2], end[0], "end checkpoint");
            info.endCheckpoint = getCheckpoint(c);
        }
    } catch (const RecordingFormatError &e) {
        return e.what();
    }

    if (info.endGcc < info.startGcc
        || (!info.isTail && info.endGcc <= info.startGcc))
        return "GCC interval not ascending";
    if (info.hasStartCheckpoint != (seg_id > 0))
        return "start-checkpoint presence disagrees with the id";
    if (info.hasEndCheckpoint == info.isTail)
        return "end-checkpoint presence disagrees with the tail flag";
    const auto fits = [&](const SystemCheckpoint &c, std::uint64_t gcc) {
        return c.gcc == gcc && c.contexts.size() == n
               && c.committedChunks.size() == n;
    };
    if (info.hasStartCheckpoint && !fits(info.startCheckpoint, info.startGcc))
        return "start checkpoint disagrees with the header";
    if (info.hasEndCheckpoint && !fits(info.endCheckpoint, info.endGcc))
        return "end checkpoint disagrees with the header";
    info.fileBytes = bytes.size();
    out.info = std::move(info);
    out.path = path;
    out.payloadOff = off;
    return "";
}

} // namespace

RingArchiveReader::RingArchiveReader() = default;
RingArchiveReader::RingArchiveReader(RingArchiveReader &&) noexcept =
    default;
RingArchiveReader &
RingArchiveReader::operator=(RingArchiveReader &&) noexcept = default;
RingArchiveReader::~RingArchiveReader() = default;

bool
RingArchiveReader::looksLikeRing(const std::string &dir)
{
    std::ifstream in(dir + "/ring.meta", std::ios::binary);
    std::uint8_t head[8];
    in.read(reinterpret_cast<char *>(head), 8);
    return in && readU64At(head, 0) == kRingMetaMagic;
}

RingArchiveReader
RingArchiveReader::open(const std::string &dir,
                        const ArchiveIoOptions &io)
{
    RingArchiveReader r;
    r.dir_ = dir;
    r.io_ = io;

    // ----- ring.meta ------------------------------------------------
    std::vector<std::uint8_t> meta;
    if (!readWholeFile(dir + "/ring.meta", meta))
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "cannot read " + dir
                               + "/ring.meta (not a ring archive?)");
    std::istringstream in(std::ios::binary);
    const std::string meta_error = openBlobFile(meta, kRingMetaMagic, in);
    if (!meta_error.empty())
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "ring.meta " + meta_error);
    try {
        r.run_ = getRunInfo(in);
        r.opts_.budgetBytes = getU64(in);
        r.opts_.checkpointPeriod = getU64(in);
        r.opts_.maxReplayLag = getU64(in);
        r.opts_.io = io;
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment, e.what());
    }
    const unsigned n = r.run_.machine.numProcs;

    // ----- segment scan ---------------------------------------------
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    std::vector<ScannedSegment> found;
    for (const std::string &name : names) {
        ScannedSegment s;
        const std::string reason = scanSegmentFile(dir + "/" + name, n, s);
        if (reason.empty()) {
            found.push_back(std::move(s));
        } else {
            ++r.recovery_.droppedSegments;
            r.recovery_.notes.push_back(name + ": " + reason);
        }
    }
    std::stable_sort(found.begin(), found.end(),
                     [](const ScannedSegment &a,
                        const ScannedSegment &b) {
                         return a.info.segId < b.info.segId;
                     });
    // Duplicate ids (a copy planted next to the original): keep the
    // first by name order, drop the rest.
    for (std::size_t i = 1; i < found.size();) {
        if (found[i].info.segId == found[i - 1].info.segId) {
            ++r.recovery_.droppedSegments;
            r.recovery_.notes.push_back(
                found[i].path + ": duplicate segment id "
                + std::to_string(found[i].info.segId));
            found.erase(found.begin()
                        + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    if (found.empty())
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment,
                           "ring holds no decodable segments");

    // Newest contiguous run: walk back from the newest valid segment
    // while ids are consecutive and GCC intervals chain.
    std::size_t first = found.size() - 1;
    while (first > 0) {
        const RingSegmentInfo &prev = found[first - 1].info;
        const RingSegmentInfo &cur = found[first].info;
        if (prev.segId + 1 != cur.segId
            || prev.endGcc != cur.startGcc || prev.isTail)
            break;
        --first;
    }
    if (first > 0) {
        r.recovery_.droppedSegments += first;
        r.recovery_.notes.push_back(
            std::to_string(first)
            + " older segment(s) unreachable behind a gap at segment "
            + std::to_string(found[first].info.segId));
    }
    for (std::size_t i = first; i < found.size(); ++i) {
        r.segments_.push_back(std::move(found[i].info));
        r.seg_paths_.push_back(std::move(found[i].path));
        r.payload_off_.push_back(found[i].payloadOff);
    }

    // ----- ring.index -----------------------------------------------
    std::vector<std::uint8_t> idx;
    const bool idx_ok = readWholeFile(dir + "/ring.index", idx);
    bool idx_clean = false;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> idx_live;
    bool idx_valid = false;
    std::istringstream idx_in(std::ios::binary);
    if (!idx_ok) {
        r.recovery_.notes.push_back(
            "ring.index missing; recovered by scan");
    } else if (const std::string why =
                   openBlobFile(idx, kRingIdxMagic, idx_in);
               !why.empty()) {
        r.recovery_.notes.push_back("ring.index " + why
                                    + "; recovered by scan");
    } else {
        try {
            idx_clean = getU64(idx_in) != 0;
            const std::uint64_t count = getU64(idx_in);
            if (count > kMaxSegmentsPerRing)
                throw RecordingFormatError(
                    "implausible index segment count");
            for (std::uint64_t i = 0; i < count; ++i) {
                const std::uint64_t id = getU64(idx_in);
                const std::uint64_t bytes = getU64(idx_in);
                idx_live.emplace_back(id, bytes);
            }
            if (idx_clean)
                r.final_ = getFinalStats(idx_in, n);
            idx_valid = true;
        } catch (const RecordingFormatError &) {
            r.recovery_.notes.push_back(
                "ring.index malformed; recovered by scan");
            idx_valid = false;
        }
    }
    if (idx_valid) {
        // The scan is the truth; the index only certifies a clean
        // close (and its final stats) when it agrees exactly.
        bool agrees = idx_live.size() == r.segments_.size();
        for (std::size_t i = 0; agrees && i < idx_live.size(); ++i)
            agrees = idx_live[i].first == r.segments_[i].segId
                     && idx_live[i].second
                            == r.segments_[i].fileBytes;
        if (agrees) {
            r.recovery_.usedIndex = true;
            r.recovery_.clean =
                idx_clean && r.segments_.back().isTail;
        } else {
            r.recovery_.notes.push_back(
                "ring.index stale (disagrees with scan); recovered "
                "by scan");
        }
    }
    if (!r.recovery_.clean) {
        r.final_ = FinalStats{};
        r.final_.perProcAcc.assign(n, 0);
        r.final_.perProcRetired.assign(n, 0);
    }

    // ----- checkpoint index over boundaries 0..m --------------------
    const std::size_t m = r.segments_.size();
    for (std::size_t b = 0; b <= m; ++b) {
        const bool has =
            b == 0 ? r.segments_[0].hasStartCheckpoint
                   : (b < m ? true
                            : r.segments_[m - 1].hasEndCheckpoint);
        if (has)
            r.ckpt_boundary_.push_back(b);
    }
    return r;
}

const SystemCheckpoint &
RingArchiveReader::boundaryCheckpoint(std::size_t b) const
{
    return b < segments_.size()
               ? segments_[b].startCheckpoint
               : segments_.back().endCheckpoint;
}

std::uint64_t
RingArchiveReader::startGcc() const
{
    return segments_.front().startGcc;
}

std::uint64_t
RingArchiveReader::endGcc() const
{
    return segments_.back().endGcc;
}

std::size_t
RingArchiveReader::checkpointCount() const
{
    return ckpt_boundary_.size();
}

std::vector<std::uint64_t>
RingArchiveReader::checkpointGccs() const
{
    std::vector<std::uint64_t> gccs;
    gccs.reserve(ckpt_boundary_.size());
    for (const std::size_t b : ckpt_boundary_)
        gccs.push_back(boundaryCheckpoint(b).gcc);
    return gccs;
}

const SystemCheckpoint &
RingArchiveReader::checkpointAt(std::size_t index) const
{
    if (index >= ckpt_boundary_.size())
        throw CheckpointOutOfRangeError(
            index, ckpt_boundary_.size(),
            "ring checkpoint " + std::to_string(index) + " of "
                + std::to_string(ckpt_boundary_.size()));
    return boundaryCheckpoint(ckpt_boundary_[index]);
}

std::size_t
RingArchiveReader::newestCheckpointAtOrBefore(std::uint64_t cycle) const
{
    const std::vector<std::uint64_t> gccs = checkpointGccs();
    const auto it =
        std::upper_bound(gccs.begin(), gccs.end(), cycle);
    if (it == gccs.begin())
        throw CheckpointOutOfRangeError(
            0, gccs.size(),
            "cycle " + std::to_string(cycle)
                + " predates the retained window"
                + (gccs.empty()
                       ? std::string(" (no checkpoints retained)")
                       : " (oldest checkpoint at GCC "
                             + std::to_string(gccs.front()) + ")"));
    return static_cast<std::size_t>(it - gccs.begin()) - 1;
}

WorkerPool &
RingArchiveReader::ioPool() const
{
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(io_.resolvedIoThreads());
    return *pool_;
}

std::vector<std::uint8_t>
RingArchiveReader::segmentPayload(std::size_t pos) const
{
    const RingSegmentInfo &info = segments_[pos];
    std::ifstream in(seg_paths_[pos], std::ios::binary);
    if (!in)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "cannot open " + seg_paths_[pos]);
    in.seekg(static_cast<std::streamoff>(payload_off_[pos]));
    std::vector<std::uint8_t> comp(
        static_cast<std::size_t>(info.compBytes));
    in.read(reinterpret_cast<char *>(comp.data()),
            static_cast<std::streamsize>(comp.size()));
    if (static_cast<std::uint64_t>(in.gcount()) != info.compBytes)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "torn payload in " + seg_paths_[pos]);
    return inflate(comp.data(), info.compBytes, info.crc32,
                   info.rawBytes, ArchiveSection::kSegment, pos,
                   "payload");
}

Recording
RingArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    checkInterval(from, to, checkpointCount());
    if (to == kToEnd && !recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: final stats are "
            "unavailable, bound the interval at a retained "
            "checkpoint");
    const std::size_t lo = ckpt_boundary_[from];
    const std::size_t hi =
        to == kToEnd ? segments_.size() : ckpt_boundary_[to];
    return assembleInterval(
        run_, final_, ioPool(), boundaryCheckpoint(lo),
        to == kToEnd ? nullptr : &boundaryCheckpoint(hi), lo, hi - lo,
        [this](std::size_t pos) { return segmentPayload(pos); });
}

Recording
RingArchiveReader::readAll() const
{
    if (!recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: readAll unavailable");
    if (segments_.front().segId != 0)
        throw CheckpointOutOfRangeError(
            0, checkpointCount(),
            "run start evicted: oldest retained segment is "
                + std::to_string(segments_.front().segId));
    std::vector<SystemCheckpoint> checkpoints;
    for (std::size_t i = 0; i + 1 < segments_.size(); ++i)
        checkpoints.push_back(segments_[i].endCheckpoint);
    return assembleAll(
        run_, final_, ioPool(), segments_.size(),
        [this](std::size_t pos) { return segmentPayload(pos); },
        std::move(checkpoints));
}

} // namespace delorean
