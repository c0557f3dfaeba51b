/**
 * @file
 * Recording archive: a segmented, compressed, checkpoint-indexed
 * container for DeLorean recordings.
 *
 * A .dlr recording serializes every log as one monolithic stream —
 * replaying the interval I(n, m) still pays for loading and parsing
 * the whole thing. The archive (.dla) cuts the recording into
 * *segments* at system-checkpoint GCC boundaries:
 *
 *   file  := header  segment*  footer  trailer
 *   header:= magic "DeLoArcv" (u64)  version (u64)
 *   segment := segMagic "DeLoSeg." (u64)  index (u64)
 *              rawBytes (u64)  compBytes (u64)  crc32 (u64)
 *              payload [compBytes]           -- LZ77-compressed
 *   footer := LZ77-compressed metadata + per-segment index
 *             (endGcc, file offset, sizes, CRC, per-proc log bit
 *             positions, and the boundary SystemCheckpoint)
 *   trailer:= footerOffset (u64)  footerCompBytes (u64)
 *             footerRawBytes (u64)  footerCrc32 (u64)
 *             endMagic "DeLoArcZ" (u64)
 *
 * Segment i holds the log slices covering the GCC interval
 * (ckpt[i-1].gcc, ckpt[i].gcc]; a final tail segment covers from the
 * last checkpoint to the end of the run. Every payload carries the
 * CRC-32 of its compressed bytes, so corruption is *detected* — a
 * typed ArchiveError naming the section and segment — never a crash
 * or a silent divergence. The reader seeks to a checkpoint in O(1)
 * via the footer index and decodes only the segments covering the
 * requested interval.
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

class WorkerPool;

/**
 * Data-plane knobs for archive I/O.
 *
 * Segments are independent by construction, so their LZ77
 * compression (writer) and CRC-check + decompression + parse
 * (reader) fan out over a WorkerPool; commit order is always segment
 * order, so container bytes and reassembled recordings are identical
 * at any thread count. mmapReads selects the zero-copy read path for
 * file-backed readers: the container is mapped once and payloads are
 * decoded straight out of the mapping, falling back to buffered
 * reads when mapping fails or the platform has no mmap.
 */
struct ArchiveIoOptions
{
    /// Codec worker count; 0 resolves to defaultArchiveIoThreads().
    unsigned ioThreads = 0;

    /// File-backed readers try mmap first (ignored by fromBytes).
    bool mmapReads = true;

    /** ioThreads with the 0-default resolved. */
    unsigned resolvedIoThreads() const;
};

/**
 * Default codec worker count: the DELOREAN_JOBS environment variable
 * if set to a positive integer, otherwise the host's hardware
 * concurrency (at least 1) — the same resolution campaigns use.
 */
unsigned defaultArchiveIoThreads();

/** Structural region of an archive file an error can point at. */
enum class ArchiveSection
{
    kFileHeader,
    kSegment,
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

/** Footer index entry: everything known about one segment. */
struct ArchiveSegmentInfo
{
    /// GCC at the end of this segment's interval (== the boundary
    /// checkpoint's GCC, or the recording's final GCC for the tail).
    std::uint64_t endGcc = 0;
    std::uint64_t fileOffset = 0; ///< of the segment header
    std::uint64_t rawBytes = 0;   ///< decompressed payload size
    std::uint64_t compBytes = 0;  ///< stored payload size
    std::uint64_t crc32 = 0;      ///< CRC-32 of the compressed payload

    /// Cumulative bit positions in the raw bit-packed memory-ordering
    /// logs at this segment's end — where a hardware recorder's log
    /// write pointers stood at the checkpoint.
    std::uint64_t piBitsEnd = 0;
    std::uint64_t strataBitsEnd = 0;
    std::vector<std::uint64_t> csBitsEnd; ///< one per processor

    bool hasCheckpoint = false;   ///< false only for the tail segment
    SystemCheckpoint checkpoint;  ///< boundary state (if hasCheckpoint)
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
 * compression, CRC and the file write happen on a background flusher
 * thread that fans the codec work over a WorkerPool. Staging is
 * double-buffered: while one batch compresses and writes, the next
 * accumulates, and the recording thread never blocks on the codec.
 * close() streams any remaining checkpoints, cuts the tail segment,
 * drains the flusher, and writes the footer index and trailer. The
 * ring (store/ring) runs the same segment pipeline into a directory.
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
     * footer index and trailer, and flush the stream. Call once, with
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

/** Run identity both containers store (.dla footer, ring.meta). */
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
 * and the final fingerprint (.dla footer, clean ring.index).
 */
struct FinalStats
{
    std::uint64_t engine[8] = {};
    std::vector<std::uint64_t> perProcAcc;
    std::vector<std::uint64_t> perProcRetired;
    std::uint64_t finalMemHash = 0;
};

} // namespace archive_detail

/**
 * Random-access archive reader. Construction parses and integrity-
 * checks the header, footer and trailer (O(#segments), not O(bytes));
 * segment payloads are CRC-checked and decoded only when a read needs
 * them. All failures surface as ArchiveError.
 */
class ArchiveReader
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

    // Out of line: the codec pool member is only forward-declared
    // here, so the special members must live where it is complete.
    ArchiveReader(ArchiveReader &&) noexcept;
    ArchiveReader &operator=(ArchiveReader &&) noexcept;
    ~ArchiveReader();

    /** True when this reader decodes straight out of an mmap. */
    bool usingMmap() const { return map_.mapped(); }

    /** True if @p bytes starts with the archive magic. */
    static bool looksLikeArchive(const std::uint8_t *bytes,
                                 std::size_t size);

    /** Convenience: magic sniff on a file's first 8 bytes. */
    static bool fileLooksLikeArchive(const std::string &path);

    const std::vector<ArchiveSegmentInfo> &segments() const
    {
        return segments_;
    }

    /** Number of seekable checkpoints (segments minus the tail). */
    std::size_t checkpointCount() const;

    /** GCCs of the seekable checkpoints, ascending. */
    std::vector<std::uint64_t> checkpointGccs() const;

    /** Boundary checkpoint @p index (0-based, ascending GCC). */
    const SystemCheckpoint &checkpointAt(std::size_t index) const;

    const MachineConfig &machine() const { return run_.machine; }
    const ModeConfig &mode() const { return run_.mode; }
    const std::string &appName() const { return run_.app; }
    std::uint64_t workloadSeed() const { return run_.seed; }
    unsigned iterationsPercent() const { return run_.iterations; }

    /**
     * Reassemble the complete Recording. Byte-identical to the
     * archived one: saveRecording(readAll()) equals saveRecording()
     * of the original. Decodes (and CRC-checks) every segment.
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
     * checkpoints[1] (pass &rec.checkpoints[1] as the stop).
     */
    static constexpr std::size_t kToEnd = static_cast<std::size_t>(-1);
    Recording readInterval(std::size_t from,
                           std::size_t to = kToEnd) const;

  private:
    ArchiveReader() = default;

    void parse();
    /// Header-check + inflate one segment payload; returns raw bytes.
    std::vector<std::uint8_t> segmentPayload(std::size_t index) const;
    /// The pool backing parallel segment decode (lazily built).
    WorkerPool &ioPool() const;

    /// Container bytes: owned_ (fromBytes / buffered fromFile) or
    /// map_ (zero-copy fromFile); data_/size_ view whichever is live.
    std::vector<std::uint8_t> owned_;
    MappedFile map_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    ArchiveIoOptions io_;
    /// Lazily constructed; reused across readAll/readInterval calls
    /// on one reader. Readers are not internally synchronized — use
    /// one reader per thread, like any const-method-only class with
    /// lazy state.
    mutable std::unique_ptr<WorkerPool> pool_;
    archive_detail::RunInfo run_;
    archive_detail::FinalStats final_;
    std::vector<ArchiveSegmentInfo> segments_;
};

} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_HPP_
