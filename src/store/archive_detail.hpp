/**
 * @file
 * Shared internals of the archive containers (library-private).
 *
 * The `.dla` archive (store/archive) and the ring container
 * (store/ring) store the same unit: the self-describing segment
 * record. The ring keeps one record per `seg-<id>` file; a `.dla`
 * packs the records of a whole run into one file between a meta
 * record and an index record. This header holds everything the two
 * share, so they stay byte-compatible by construction:
 *
 *  - the record encodings: the segment record, and the meta and index
 *    records (a 40-byte preamble and a raw blob);
 *  - the writer side: one SegmentPipeline (feeder-side cuts, a
 *    double-buffered flusher thread, the codec pool, error poisoning)
 *    driving a SegmentSink that decides where a cut segment's record
 *    lands;
 *  - the reader side: one segment-record parser over a byte span,
 *    the chain check between consecutive records, payload inflate
 *    (CRC, decompress, size check), and decode-and-append
 *    reassembly.
 *
 * Everything here is an implementation detail: not installed, not
 * part of the public API, subject to change with the container
 * formats.
 */

#ifndef DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
#define DELOREAN_STORE_ARCHIVE_DETAIL_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "sim/campaign.hpp"
#include "store/archive.hpp"

namespace delorean
{
namespace archive_detail
{

/**
 * Per-segment boundary state: where every log cursor stands at the
 * end of a segment's GCC interval. Consecutive boundaries define the
 * half-open slice ranges a segment's payload holds.
 */
struct Boundary
{
    std::uint64_t gcc = 0;        ///< PI entries consumed (flat modes)
    std::uint64_t chunkCommits = 0; ///< fingerprint commits consumed
    std::size_t strataIdx = 0;
    std::size_t dmaIdx = 0;
    std::vector<ChunkSeq> committed;  ///< per-proc chunk seq frontier
    std::vector<std::uint64_t> ioIdx; ///< per-proc I/O value frontier
};

/** Little-endian u64 at @p offset (caller guarantees bounds). */
std::uint64_t readU64At(const std::uint8_t *bytes, std::size_t offset);

/** Read all of @p path into @p bytes; false when it cannot be read. */
bool readWholeFile(const std::string &path,
                   std::vector<std::uint8_t> &bytes);

// ----- meta and index records ----------------------------------------------

/// Preamble magics of the meta and index records.
constexpr std::uint64_t kMetaMagic = 0x2E676E526F4C6544ull;  // "DeLoRng."
constexpr std::uint64_t kIndexMagic = 0x786449526F4C6544ull; // "DeLoRIdx"
/// Meta/index preamble: magic, version, reserved, blob size, blob
/// CRC-32.
constexpr std::size_t kBlobPreambleBytes = 40;

/** A meta or index record: the preamble, then @p blob as is. */
void putBlobRecord(std::ostream &out, std::uint64_t magic,
                   const std::string &blob);

/** Meta record contents: run identity, then the ring's knobs. */
struct Meta
{
    RunInfo run;
    std::uint64_t budgetBytes = 0;
    std::uint64_t checkpointPeriod = 0;
    std::uint64_t maxReplayLag = 0;
};

/** Meta blob of @p rec; a `.dla` stores zero knobs. */
std::string metaBlob(const Recording &rec, std::uint64_t budget_bytes,
                     std::uint64_t checkpoint_period,
                     std::uint64_t max_replay_lag);

/**
 * Open and parse the meta record spanning exactly @p bytes[0, size);
 * failures are ArchiveError(kFileHeader) led by @p what.
 */
Meta openMetaRecord(const std::uint8_t *bytes, std::size_t size,
                    const std::string &what);

/** One index entry: a stored record's segment id and size. */
struct RecordRef
{
    std::uint64_t segId = 0;
    std::uint64_t bytes = 0;
};

/** Index record contents. */
struct IndexInfo
{
    bool clean = false;           ///< written at close
    std::vector<RecordRef> live;  ///< stored records, oldest first
    FinalStats fin;               ///< clean indexes only
};

/**
 * Index blob over @p live; @p closed is the finished recording (a
 * clean index carrying its final stats) or nullptr (a progress
 * snapshot).
 */
std::string indexBlob(const std::vector<RecordRef> &live,
                      const Recording *closed);

/**
 * Open and parse the index record spanning exactly @p bytes[0, size)
 * for a run of @p num_procs; a RecordingFormatError says why it is
 * unusable.
 */
IndexInfo openIndexRecord(const std::uint8_t *bytes, std::size_t size,
                          unsigned num_procs);

// ----- writer side ----------------------------------------------------------

/**
 * Open @p path, let @p body write it, then close and check: throws
 * ArchiveWriteError unless every byte landed. Write errors a buffered
 * stream defers to its flush at close surface here, never silently.
 */
void writeFileChecked(const std::string &path,
                      const std::function<void(std::ostream &)> &body);

/** A compressed blob with what a reader needs to verify it. */
struct EncodedBlob
{
    std::uint64_t rawBytes = 0;
    std::uint64_t crc = 0; ///< CRC-32 of comp
    std::vector<std::uint8_t> comp;
};

/** Compress and CRC @p raw. */
EncodedBlob encodeBlob(const std::string &raw);

/**
 * One segment between its cut (feeder thread) and its commit (flusher
 * thread). The cut fills everything but the blobs; the codec fills
 * payload and, when the segment ends at a checkpoint, end.
 */
struct StagedSegment
{
    std::size_t index = 0;      ///< zero-based cut order
    std::uint64_t startGcc = 0; ///< GCC at the previous boundary
    std::uint64_t endGcc = 0;
    std::string raw;            ///< payload, freed once compressed
    /// The boundary checkpoint; empty for the tail segment.
    std::optional<SystemCheckpoint> checkpoint;
    EncodedBlob payload;
    EncodedBlob end; ///< the checkpoint image, when there is one
};

/**
 * Write @p seg as one segment record: preamble, header blob, the
 * start-checkpoint image @p start (nullptr: the record omits it), the
 * end-checkpoint image, the payload. Returns the record's size.
 */
std::uint64_t putSegmentRecord(std::ostream &out,
                               const StagedSegment &seg,
                               const EncodedBlob *start);

/** Where a SegmentPipeline's cut segments land. */
class SegmentSink
{
  public:
    SegmentSink() = default;
    virtual ~SegmentSink() = default;

    // The pipeline's flusher thread holds the sink's address.
    SegmentSink(const SegmentSink &) = delete;
    SegmentSink &operator=(const SegmentSink &) = delete;

    /** Feeder thread, once, before the first cut. */
    virtual void begin(const Recording &rec) = 0;

    /** Flusher thread: commit one encoded batch, in cut order. */
    virtual void commit(std::vector<StagedSegment> &batch) = 0;
};

/**
 * The segment-writing pipeline behind StreamingArchiveWriter and
 * RingArchiveWriter. The *feeder* (recording) thread cuts segment
 * payloads synchronously — boundary math and buildSegmentPayload read
 * the live recording, which keeps growing after each hook returns —
 * and stages owned StagedSegments. The *flusher* thread compresses a
 * snatched batch (payloads and end-checkpoint images) over the codec
 * pool and hands it to the sink; while
 * it runs, the feeder keeps staging without blocking (double
 * buffering). Handoff is by join: the feeder only touches `flushing_`,
 * the pool and sink-committed state after observing flush_done_ and
 * joining, so no mutex is needed. A flusher failure is rethrown on
 * the feeder thread at the next call and closes the pipeline.
 */
class SegmentPipeline
{
  public:
    /** @p who names the owning writer in misuse errors. */
    SegmentPipeline(SegmentSink &sink, const ArchiveIoOptions &io,
                    const char *who);
    ~SegmentPipeline();

    SegmentPipeline(const SegmentPipeline &) = delete;
    SegmentPipeline &operator=(const SegmentPipeline &) = delete;

    /** Cut every not-yet-consumed checkpoint; start a flush if idle. */
    void onCheckpoint(const Recording &rec);

    /**
     * Cut the remaining checkpoints and the tail segment and commit
     * everything. The pipeline is closed afterwards, failure or not.
     */
    void finish(const Recording &rec);

    bool closed() const { return closed_; }

    /** Segments cut so far. */
    std::size_t segmentCount() const { return staged_; }

  private:
    void feed(const Recording &rec);
    void stage(const Recording &rec, Boundary hi,
               const SystemCheckpoint *ckpt);
    void pump();
    void drain();
    void flushBatch();
    void rethrowFlushError();

    SegmentSink &sink_;
    ArchiveIoOptions io_;
    const char *who_;
    bool initialized_ = false;
    bool closed_ = false;

    Boundary last_;              ///< frontier at the last cut
    std::uint64_t last_gcc_ = 0; ///< last checkpoint GCC
    std::size_t fed_ = 0;        ///< checkpoints consumed
    std::size_t staged_ = 0;     ///< segments cut

    std::vector<StagedSegment> staging_;  ///< feeder-owned accumulation
    std::vector<StagedSegment> flushing_; ///< flusher-owned batch
    std::atomic<bool> flush_done_{true};
    std::exception_ptr flush_error_;
    std::unique_ptr<WorkerPool> pool_;
    std::thread flusher_; ///< last: it uses every member above
};

// ----- reader side ----------------------------------------------------------

/** Where a blob sits in its file and what verifies it. */
struct BlobRef
{
    std::uint64_t offset = 0;
    std::uint64_t rawBytes = 0;
    std::uint64_t compBytes = 0;
    std::uint64_t crc = 0;
};

/** One parsed segment record, checked on its own. */
struct ParsedSegment
{
    SegmentInfo info;
    BlobRef start; ///< CRC-checked, not decoded (hasStartCheckpoint)
    BlobRef end;   ///< (hasEndCheckpoint)
    SystemCheckpoint endCheckpoint; ///< decoded, checked against info
};

/**
 * Parse the segment record spanning exactly @p bytes[0, size), found
 * at @p file_offset in its file, for a run of @p num_procs. Every
 * blob is CRC-checked; the header and the end checkpoint are decoded
 * and cross-checked, the start checkpoint is not decoded (see
 * chainBreak and decodeStartCheckpoint). A start checkpoint is only
 * allowed after segment 0. Failures are ArchiveError(kSegment,
 * @p label).
 */
ParsedSegment parseSegmentRecord(const std::uint8_t *bytes,
                                 std::size_t size,
                                 std::uint64_t file_offset,
                                 unsigned num_procs, std::size_t label);

/**
 * Why @p cur cannot directly follow @p prev in one run, or an empty
 * string: ids must be consecutive, GCC intervals must chain, and a
 * start checkpoint @p cur stores must be the very image @p prev ends
 * with (same size and CRC), so it never needs decoding.
 */
std::string chainBreak(const ParsedSegment &prev,
                       const ParsedSegment &cur);

/**
 * Decode @p seg's start checkpoint from its stored blob @p comp and
 * check it against the header; for the first segment of a run, which
 * has no predecessor to share the image with. Failures are
 * ArchiveError(kSegment, @p label).
 */
SystemCheckpoint decodeStartCheckpoint(const std::uint8_t *comp,
                                       const ParsedSegment &seg,
                                       unsigned num_procs,
                                       std::size_t label);

/**
 * CRC-check, LZ77-decompress and size-check one stored blob. Every
 * failure is an ArchiveError in @p section naming @p index, its
 * message led by @p what ("payload", "header", ...).
 */
std::vector<std::uint8_t> inflate(const std::uint8_t *comp,
                                  std::uint64_t comp_bytes,
                                  std::uint64_t crc,
                                  std::uint64_t raw_bytes,
                                  ArchiveSection section,
                                  std::size_t index, const char *what);

} // namespace archive_detail
} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
