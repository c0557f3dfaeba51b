/**
 * @file
 * Recording archive: a segmented, compressed, checkpoint-indexed
 * container for DeLorean recordings.
 *
 * A .dlr recording serializes every log as one monolithic stream —
 * replaying the interval I(n, m) still pays for loading and parsing
 * the whole thing. The archive cuts the recording into *segments* at
 * system-checkpoint GCC boundaries. Segment i holds the log slices
 * covering the GCC interval (ckpt[i-1].gcc, ckpt[i].gcc]; a final
 * tail segment covers from the last checkpoint to the end of the run.
 *
 * There is one on-disk unit: the self-describing *segment record* the
 * ring (store/ring) stores as one `seg-<id>` file — a 48-byte
 * preamble, an LZ77 header blob naming the GCC interval and the sizes
 * and CRCs of what follows, the CRC'd start- and end-checkpoint
 * images, then the compressed payload. A `.dla` (version 3) is one
 * file of those records:
 *
 *   file    := header  meta  segment*  index  trailer
 *   header  := magic "DeLoArcv" (u64)  version (u64)
 *   meta    := the ring.meta record (run identity; zero ring knobs)
 *   segment := a segment record, in cut order from segment 0
 *   index   := a clean ring.index record (every segment's id and
 *              record size, then the run's final stats)
 *   trailer := indexOffset (u64)  endMagic "DeLoArcZ" (u64)
 *
 * A `.dla` is contiguous from segment 0, so its records omit the
 * start-checkpoint image: segment i starts where segment i-1's end
 * checkpoint left off. Every blob carries a CRC-32, so corruption is
 * *detected* — a typed ArchiveError naming the section and segment —
 * never a crash or a silent divergence. Opening parses every record
 * header and checkpoint; payloads are CRC-checked and decoded only
 * when a read needs them, and a read decodes only the segments
 * covering the requested interval.
 */

#ifndef DELOREAN_STORE_ARCHIVE_HPP_
#define DELOREAN_STORE_ARCHIVE_HPP_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "store/mmap_file.hpp"

namespace delorean
{

/**
 * Data-plane knobs for archive I/O.
 *
 * Segments are independent by construction, so their LZ77
 * compression (writer) and CRC-check + decompression + parse
 * (reader) fan out over the process-wide executor; commit order is
 * always segment order, so container bytes and reassembled
 * recordings are identical at any thread count. mmapReads selects
 * the zero-copy read path for file-backed readers: the container is
 * mapped once and payloads are decoded straight out of the mapping,
 * falling back to buffered reads when mapping fails or the platform
 * has no mmap.
 */
struct ArchiveIoOptions
{
    /// Codec batch width; 0 uses defaultJobs() (DELOREAN_JOBS).
    unsigned ioThreads = 0;

    /// File-backed readers try mmap first (ignored by fromBytes).
    bool mmapReads = true;
};

/** Structural region of an archive file an error can point at. */
enum class ArchiveSection
{
    /// The file header and meta record (ring.meta for a ring).
    kFileHeader,
    kSegment,
    /// The index record (ring.index for a ring) and what only a
    /// clean close provides: the final stats.
    kFooter,
    kTrailer,
    /// Not a byte region: an interval request named a checkpoint the
    /// container does not hold (see CheckpointOutOfRangeError).
    kCheckpointIndex,
};

const char *archiveSectionName(ArchiveSection section);

/**
 * A malformed or corrupted archive. Subtype of RecordingFormatError
 * so every existing handler that fences the loading layer also fences
 * archive parsing; carries the failing section and (for segment
 * errors) the zero-based segment id.
 */
class ArchiveError : public RecordingFormatError
{
  public:
    static constexpr std::size_t kNoSegment =
        static_cast<std::size_t>(-1);

    ArchiveError(ArchiveSection section, std::size_t segment,
                 const std::string &what);

    ArchiveSection section() const { return section_; }

    /** Failing segment id, or kNoSegment for non-segment sections. */
    std::size_t segment() const { return segment_; }

  private:
    ArchiveSection section_;
    std::size_t segment_;
};

/**
 * An interval request named a checkpoint outside what the container
 * holds — an index past the checkpoint count, an invalid (from, to)
 * pair, or (for ring archives) a cycle older than the retained
 * window. Distinct from corruption: the container is fine, the data
 * is simply not (or no longer) there, and callers can recover by
 * re-ranging the request against available().
 */
class CheckpointOutOfRangeError : public ArchiveError
{
  public:
    CheckpointOutOfRangeError(std::size_t index, std::size_t available,
                              const std::string &what);

    /** The checkpoint index (or count proxy) the request named. */
    std::size_t index() const { return index_; }

    /** Checkpoints the container actually holds. */
    std::size_t available() const { return available_; }

  private:
    std::size_t index_;
    std::size_t available_;
};

/**
 * One stored segment record, as either reader found it. The
 * checkpoint images themselves live in the reader, one per boundary.
 */
struct SegmentInfo
{
    std::uint64_t segId = 0;    ///< cut order; 0 starts the run
    std::uint64_t startGcc = 0; ///< the interval is (startGcc, endGcc]
    std::uint64_t endGcc = 0;
    std::uint64_t rawBytes = 0;  ///< decompressed payload size
    std::uint64_t compBytes = 0; ///< stored payload size
    std::uint64_t crc32 = 0;     ///< CRC-32 of the stored payload
    /// Where the record starts in its file (0 for a ring segment
    /// file), its whole size, and where its stored payload starts.
    std::uint64_t recordOffset = 0;
    std::uint64_t recordBytes = 0;
    std::uint64_t payloadOffset = 0;
    bool isTail = false;             ///< final segment of a clean close
    bool hasStartCheckpoint = false; ///< record stores its start image
    bool hasEndCheckpoint = false;   ///< false only for the tail
};

/**
 * A container write did not land: a file could not be opened, or the
 * stream failed while writing, flushing or closing (disk full, I/O
 * error). Raised by every archive and ring writer. Not a subtype of
 * RecordingFormatError: the data is fine, the medium is not.
 */
class ArchiveWriteError : public DeloreanError
{
  public:
    using DeloreanError::DeloreanError;
};

/**
 * The archive writer: emits segments while the recording is still
 * being produced, overlapping LZ77 compression and file I/O with the
 * rest of the simulation.
 *
 * Wire onCheckpoint() into EngineOptions::onCheckpoint, or call only
 * close() with a finished recording (what writeArchive() does) — both
 * feed paths produce the same bytes. Each onCheckpoint() consumes
 * every not-yet-streamed checkpoint, cuts the covered segments, and
 * *stages* them — the payload slice is serialized synchronously (the
 * recording's logs keep growing after the hook returns), while
 * compression, CRC and the file write happen in a flush task posted
 * to the executor, which fans the codec work out as a nested batch
 * of ioThreads width. Staging is double-buffered: while one batch
 * compresses and writes, the next accumulates, and the recording
 * thread never blocks on the codec.
 * close() streams any remaining checkpoints, cuts the tail segment,
 * drains the flusher, and writes the index record and trailer. The
 * ring (store/ring) runs the same segment pipeline and writes the
 * same segment records, one file each.
 *
 * The container bytes do not depend on ioThreads or on the feed path.
 * Checkpoints must arrive in ascending GCC order (the recorder emits
 * them that way); violations throw RecordingFormatError. A write
 * failure (ArchiveWriteError) is rethrown from the next
 * onCheckpoint()/close() call and closes the writer: the stream is
 * mid-segment, so every later call throws std::logic_error.
 */
class StreamingArchiveWriter
{
  public:
    explicit StreamingArchiveWriter(std::ostream &out,
                                    const ArchiveIoOptions &io = {});
    ~StreamingArchiveWriter();

    StreamingArchiveWriter(const StreamingArchiveWriter &) = delete;
    StreamingArchiveWriter &
    operator=(const StreamingArchiveWriter &) = delete;

    /**
     * Stream every checkpoint of @p rec not yet consumed (usually
     * exactly one when wired into EngineOptions::onCheckpoint).
     * Segment payloads are cut synchronously; codec + I/O proceed in
     * the background.
     */
    void onCheckpoint(const Recording &rec);

    /**
     * Finish the archive: stream any remaining checkpoints, cut the
     * tail segment, drain all pending codec/write work, emit the
     * index record and trailer, and flush the stream. Call once, with
     * the finished recording.
     */
    void close(const Recording &rec);

    /** True once close() was called or a write failed. */
    bool closed() const;

    /** Segments emitted so far (all staged + flushed ones). */
    std::size_t segmentCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Archive @p rec to @p out: a StreamingArchiveWriter fed at close(). */
void writeArchive(const Recording &rec, std::ostream &out,
                  const ArchiveIoOptions &io = {});

/**
 * Archive @p rec to file @p path. @throws ArchiveWriteError when the
 * file cannot be opened or any byte fails to land, flush and close
 * included.
 */
void writeArchiveFile(const Recording &rec, const std::string &path,
                      const ArchiveIoOptions &io = {});

namespace archive_detail
{

/** Run identity both containers store in their meta record. */
struct RunInfo
{
    MachineConfig machine;
    ModeConfig mode;
    std::string app;
    std::uint64_t seed = 0;
    unsigned iterations = 100;
};

/**
 * End-of-run values a whole-recording read restores: engine stats
 * and the final fingerprint (a clean index record).
 */
struct FinalStats
{
    std::uint64_t engine[8] = {};
    std::vector<std::uint64_t> perProcAcc;
    std::vector<std::uint64_t> perProcRetired;
    std::uint64_t finalMemHash = 0;
};

struct ParsedSegment;

} // namespace archive_detail

/**
 * What both container readers share: a contiguous run of parsed
 * segment records, one checkpoint per boundary between them, and the
 * seek, interval and whole-recording reads over that run. The
 * readers differ only in where the records come from (ArchiveReader:
 * one .dla; RingArchiveReader: a ring directory) and in when a run
 * counts as cleanly closed. Readers are not internally synchronized —
 * use one reader per thread.
 */
class SegmentArchiveReader
{
  public:
    static constexpr std::size_t kToEnd = static_cast<std::size_t>(-1);

    const MachineConfig &machine() const { return run_.machine; }
    const ModeConfig &mode() const { return run_.mode; }
    const std::string &appName() const { return run_.app; }
    std::uint64_t workloadSeed() const { return run_.seed; }
    unsigned iterationsPercent() const { return run_.iterations; }

    /** The run's segments, ascending segId (contiguous). */
    const std::vector<SegmentInfo> &segments() const
    {
        return segments_;
    }

    /** Decodable replay starting points, ascending GCC. */
    std::size_t checkpointCount() const { return checkpoints_.size(); }
    std::vector<std::uint64_t> checkpointGccs() const;
    const SystemCheckpoint &checkpointAt(std::size_t index) const;

    /**
     * Index of the newest checkpoint with GCC <= @p cycle — the
     * time-travel seek. @throws CheckpointOutOfRangeError when
     * @p cycle predates every checkpoint held.
     */
    std::size_t newestCheckpointAtOrBefore(std::uint64_t cycle) const;

    /**
     * Reassemble the complete Recording. Byte-identical to the
     * recorded one: saveRecording(readAll()) equals saveRecording()
     * of the original. Decodes (and CRC-checks) every segment.
     * Requires a clean close and segment 0 (nothing evicted).
     */
    Recording readAll() const;

    /**
     * Interval view for replaying I(ckpt[from].gcc, end) — or, when
     * @p to != kToEnd, the bounded I(ckpt[from].gcc, ckpt[to].gcc).
     * Only the segments covering the interval are decoded; the log
     * prefix before the start checkpoint is replaced by synthetic
     * filler the replay skip logic consumes without ever touching
     * real data. The returned Recording carries the start checkpoint
     * at checkpoints[0] (hand it to Replayer::replayInterval with
     * checkpoint_index 0) and, when bounded, the stop checkpoint at
     * checkpoints[1] (pass &rec.checkpoints[1] as the stop). An
     * unbounded view needs a clean close (the final stats).
     */
    Recording readInterval(std::size_t from,
                           std::size_t to = kToEnd) const;

  protected:
    SegmentArchiveReader() = default;
    SegmentArchiveReader(SegmentArchiveReader &&) noexcept = default;
    SegmentArchiveReader &
    operator=(SegmentArchiveReader &&) noexcept = default;
    virtual ~SegmentArchiveReader() = default;

    /**
     * Stored bytes [offset, offset + bytes) of segment @p pos's file:
     * a view into memory, or read into @p scratch. An ArchiveError
     * when they cannot be read.
     */
    virtual const std::uint8_t *fetch(std::size_t pos,
                                      std::uint64_t offset,
                                      std::uint64_t bytes,
                                      std::vector<std::uint8_t> &scratch)
        const = 0;

    /**
     * Take over a contiguous, chain-checked run of records. Boundary
     * 0's checkpoint is @p first_start (segment 0 has none); every
     * later boundary's is its left segment's end checkpoint. @p closed
     * holds the final stats of a clean close, nullptr otherwise.
     */
    void adopt(std::vector<archive_detail::ParsedSegment> &&records,
               const SystemCheckpoint *first_start,
               const archive_detail::FinalStats *closed);

    ArchiveIoOptions io_;
    archive_detail::RunInfo run_;

  private:
    std::vector<std::uint8_t> payload(std::size_t pos) const;

    std::vector<SegmentInfo> segments_;
    /// One per boundary that has one, ascending; ckpt_boundary_[i] is
    /// checkpoints_[i]'s boundary (0..segments_.size()).
    std::vector<SystemCheckpoint> checkpoints_;
    std::vector<std::size_t> ckpt_boundary_;
    archive_detail::FinalStats final_; ///< zeros unless clean_
    bool clean_ = false;
};

/**
 * Random-access `.dla` reader. Opening parses and integrity-checks
 * the header, meta record, every segment record's header and
 * checkpoint images, the index record and the trailer; payloads are
 * CRC-checked and decoded only when a read needs them. The index
 * must be clean and agree with the records exactly: anything torn,
 * unclean or inconsistent is an ArchiveError.
 */
class ArchiveReader : public SegmentArchiveReader
{
  public:
    static ArchiveReader fromBytes(std::vector<std::uint8_t> bytes,
                                   const ArchiveIoOptions &io = {});

    /**
     * Open @p path: mmap'ed zero-copy when io.mmapReads is set and
     * the platform cooperates, buffered otherwise. Both paths parse,
     * CRC-check, and fail identically; a missing or unreadable file
     * raises ArchiveError (kFileHeader, kNoSegment).
     */
    static ArchiveReader fromFile(const std::string &path,
                                  const ArchiveIoOptions &io = {});

    /** True when this reader decodes straight out of an mmap. */
    bool usingMmap() const { return map_.mapped(); }

    /** True if @p bytes starts with the archive magic. */
    static bool looksLikeArchive(const std::uint8_t *bytes,
                                 std::size_t size);

    /** Convenience: magic sniff on a file's first 8 bytes. */
    static bool fileLooksLikeArchive(const std::string &path);

  private:
    ArchiveReader() = default;

    void parse();
    const std::uint8_t *fetch(std::size_t pos, std::uint64_t offset,
                              std::uint64_t bytes,
                              std::vector<std::uint8_t> &scratch)
        const override;

    /// Container bytes: owned_ (fromBytes / buffered fromFile) or
    /// map_ (zero-copy fromFile); data_/size_ view whichever is live.
    std::vector<std::uint8_t> owned_;
    MappedFile map_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_HPP_
