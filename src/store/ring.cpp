#include "store/ring.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/errors.hpp"
#include "store/archive_detail.hpp"

namespace delorean
{

using namespace archive_detail;

namespace
{

std::string
segFileName(std::uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg-%012llu",
                  static_cast<unsigned long long>(id));
    return buf;
}

/** Write a meta/index record to @p path via temp + atomic rename. */
void
writeBlobFileAtomic(const std::string &path, std::uint64_t magic,
                    const std::string &blob)
{
    const std::string tmp = path + ".tmp";
    writeFileChecked(tmp, [&](std::ostream &out) {
        putBlobRecord(out, magic, blob);
    });
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw ArchiveWriteError("failed to rename " + tmp + " to "
                                + path);
}

/**
 * Read @p path's bytes [offset, offset + bytes) into @p out; false
 * when the file cannot be opened or is shorter.
 */
bool
readFileRange(const std::string &path, std::uint64_t offset,
              std::uint64_t bytes, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(static_cast<std::streamoff>(offset));
    out.resize(static_cast<std::size_t>(bytes));
    in.read(reinterpret_cast<char *>(out.data()),
            static_cast<std::streamsize>(out.size()));
    return static_cast<std::uint64_t>(in.gcount()) == bytes;
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
 * The ring sink: one segment record per file, carrying its start and
 * end checkpoint images; over-budget history is evicted oldest first
 * and ring.index is atomically rewritten after every batch.
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
        writeBlobFileAtomic(dir + "/ring.meta", kMetaMagic,
                            metaBlob(rec, opts.budgetBytes,
                                     opts.checkpointPeriod,
                                     opts.resolvedLag()));
    }

    void
    commit(std::vector<StagedSegment> &batch) override
    {
        for (StagedSegment &seg : batch) {
            // Each end checkpoint image is compressed exactly once:
            // the blob closing segment i is segment i+1's start blob.
            if (seg.index > 0 && prev_end.comp.empty())
                throw std::logic_error(
                    "ring segment cut out of order: no cached start "
                    "checkpoint");
            // Written in place, not via rename: only the newest file
            // can ever be torn, which is exactly the crash shape the
            // reader's salvage path handles.
            std::uint64_t file_bytes = 0;
            writeFileChecked(
                dir + "/" + segFileName(seg.index), [&](std::ostream &out) {
                    file_bytes = putSegmentRecord(
                        out, seg, seg.index > 0 ? &prev_end : nullptr);
                });
            if (seg.checkpoint)
                prev_end = std::move(seg.end);
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
        std::vector<RecordRef> snapshot;
        {
            std::lock_guard<std::mutex> lock(mu);
            snapshot.assign(live.begin(), live.end());
        }
        writeBlobFileAtomic(dir + "/ring.index", kIndexMagic,
                            indexBlob(snapshot, rec));
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
                seg.endGcc - (have_durable ? newest_start_gcc : 0);
            statsd.worstStartLag = std::max(statsd.worstStartLag, lag);
            statsd.maxCheckpointSpacing =
                std::max(statsd.maxCheckpointSpacing,
                         seg.endGcc - seg.startGcc);
            have_durable = true;
            newest_start_gcc = seg.startGcc;

            live.push_back({seg.index, file_bytes});
            ++statsd.segmentsCut;
            statsd.bytesWritten += file_bytes;
            statsd.liveBytes += file_bytes;
            while (statsd.liveBytes > opts.budgetBytes
                   && live.size() > 1) {
                const RecordRef victim = live.front();
                live.pop_front();
                statsd.liveBytes -= victim.bytes;
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

    /// Guards live and statsd, which stats() reads while the flusher
    /// commits.
    mutable std::mutex mu;
    std::deque<RecordRef> live; ///< retained on-disk segments, oldest first
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

/** A scanned segment file before the contiguity walk, and its path. */
using ScannedSegment = std::pair<ParsedSegment, std::string>;

bool
RingArchiveReader::looksLikeRing(const std::string &dir)
{
    std::ifstream in(dir + "/ring.meta", std::ios::binary);
    std::uint8_t head[8];
    in.read(reinterpret_cast<char *>(head), 8);
    return in && readU64At(head, 0) == kMetaMagic;
}

RingArchiveReader
RingArchiveReader::open(const std::string &dir,
                        const ArchiveIoOptions &io)
{
    RingArchiveReader r;
    r.io_ = io;

    // ----- ring.meta ------------------------------------------------
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(dir + "/ring.meta", bytes))
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "cannot read " + dir
                               + "/ring.meta (not a ring archive?)");
    const Meta meta =
        openMetaRecord(bytes.data(), bytes.size(), "ring.meta");
    r.run_ = meta.run;
    r.opts_.budgetBytes = meta.budgetBytes;
    r.opts_.checkpointPeriod = meta.checkpointPeriod;
    r.opts_.maxReplayLag = meta.maxReplayLag;
    r.opts_.io = io;
    const unsigned n = r.run_.machine.numProcs;
    RingRecoveryInfo &rc = r.recovery_;

    // ----- segment scan ---------------------------------------------
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    // Valid files by segment id. A duplicate id (a copy planted next
    // to the original) keeps the first by name order.
    std::map<std::uint64_t, ScannedSegment> by_id;
    for (const std::string &name : names) {
        const std::string path = dir + "/" + name;
        try {
            if (!readWholeFile(path, bytes))
                throw ArchiveError(ArchiveSection::kSegment,
                                   ArchiveError::kNoSegment,
                                   "unreadable");
            ParsedSegment seg = parseSegmentRecord(
                bytes.data(), bytes.size(), 0, n, ArchiveError::kNoSegment);
            const std::uint64_t id = seg.info.segId;
            if (!by_id.try_emplace(id, ScannedSegment{std::move(seg), path})
                     .second)
                throw ArchiveError(ArchiveSection::kSegment,
                                   ArchiveError::kNoSegment,
                                   "duplicate segment id "
                                       + std::to_string(id));
        } catch (const ArchiveError &e) {
            ++rc.droppedSegments;
            rc.notes.push_back(name + ": " + e.what());
        }
    }
    std::vector<std::uint8_t>().swap(bytes);
    std::vector<ScannedSegment> found;
    for (auto &entry : by_id)
        found.push_back(std::move(entry.second));

    // Newest contiguous run: walk back from the newest valid segment
    // while each segment chains onto its predecessor.
    std::size_t first = found.empty() ? 0 : found.size() - 1;
    while (first > 0
           && chainBreak(found[first - 1].first, found[first].first).empty())
        --first;
    if (first > 0) {
        rc.droppedSegments += first;
        rc.notes.push_back(
            std::to_string(first)
            + " older segment(s) unreachable behind a gap at segment "
            + std::to_string(found[first].first.info.segId));
    }
    // The run's first segment needs its own start checkpoint image
    // (segment 0 has none and needs none): a record that omits it may
    // only follow its predecessor.
    std::optional<SystemCheckpoint> first_start;
    for (; first < found.size() && found[first].first.info.segId > 0;
         ++first) {
        const ParsedSegment &head = found[first].first;
        try {
            if (!head.info.hasStartCheckpoint)
                throw ArchiveError(ArchiveSection::kSegment,
                                   ArchiveError::kNoSegment,
                                   "no start checkpoint, and its "
                                   "predecessor is gone");
            std::vector<std::uint8_t> comp;
            if (!readFileRange(found[first].second, head.start.offset,
                               head.start.compBytes, comp))
                throw ArchiveError(ArchiveSection::kSegment,
                                   ArchiveError::kNoSegment,
                                   "start checkpoint unreadable");
            first_start = decodeStartCheckpoint(comp.data(), head, n,
                                                ArchiveError::kNoSegment);
            break;
        } catch (const ArchiveError &e) {
            ++rc.droppedSegments;
            rc.notes.push_back(found[first].second + ": " + e.what());
        }
    }
    if (first == found.size())
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment,
                           "ring holds no decodable segments");
    std::vector<ParsedSegment> run;
    for (std::size_t i = first; i < found.size(); ++i) {
        run.push_back(std::move(found[i].first));
        r.seg_paths_.push_back(std::move(found[i].second));
    }

    // ----- ring.index -----------------------------------------------
    IndexInfo index;
    bool idx_valid = false;
    if (!readWholeFile(dir + "/ring.index", bytes)) {
        rc.notes.push_back("ring.index missing; recovered by scan");
    } else {
        try {
            index = openIndexRecord(bytes.data(), bytes.size(), n);
            idx_valid = true;
        } catch (const RecordingFormatError &e) {
            rc.notes.push_back(std::string("ring.index ") + e.what()
                               + "; recovered by scan");
        }
    }
    if (idx_valid) {
        // The scan is the truth; the index only certifies a clean
        // close (and its final stats) when it agrees exactly.
        bool agrees = index.live.size() == run.size();
        for (std::size_t i = 0; agrees && i < run.size(); ++i)
            agrees = index.live[i].segId == run[i].info.segId
                     && index.live[i].bytes == run[i].info.recordBytes;
        if (agrees) {
            rc.usedIndex = true;
            rc.clean = index.clean && run.back().info.isTail;
        } else {
            rc.notes.push_back(
                "ring.index stale (disagrees with scan); recovered "
                "by scan");
        }
    }
    r.adopt(std::move(run), first_start ? &*first_start : nullptr,
            rc.clean ? &index.fin : nullptr);
    return r;
}

std::uint64_t
RingArchiveReader::startGcc() const
{
    return segments().front().startGcc;
}

std::uint64_t
RingArchiveReader::endGcc() const
{
    return segments().back().endGcc;
}

const std::uint8_t *
RingArchiveReader::fetch(std::size_t pos, std::uint64_t offset,
                         std::uint64_t bytes,
                         std::vector<std::uint8_t> &scratch) const
{
    if (!readFileRange(seg_paths_[pos], offset, bytes, scratch))
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "torn payload in " + seg_paths_[pos]);
    return scratch.data();
}

} // namespace delorean
