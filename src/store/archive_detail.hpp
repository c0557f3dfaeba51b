/**
 * @file
 * Shared internals of the archive containers (library-private).
 *
 * The `.dla` archive (store/archive) and the ring container
 * (store/ring) store exactly the same per-segment log slices: both cut
 * a recording at checkpoint boundaries and store the slice between
 * two consecutive boundaries as one LZ77-compressed payload. This
 * header holds everything the two share, so they stay byte-compatible
 * by construction:
 *
 *  - the segment boundary a cut ends at;
 *  - the writer side: one SegmentPipeline (feeder-side cuts, a
 *    double-buffered flusher thread, the codec pool, error poisoning)
 *    driving a SegmentSink that decides where a cut segment lands;
 *  - the reader side: payload inflate (CRC, decompress, size check),
 *    decode-and-append reassembly, and the run metadata and final
 *    stats both containers encode the same way.
 *
 * A ring segment's payload for a given checkpoint interval is
 * identical to the `.dla` archive's, and an interval Recording
 * reconstructed from either container is byte-identical under
 * saveRecording().
 *
 * Everything here is an implementation detail: not installed, not
 * part of the public API, subject to change with the container
 * formats.
 */

#ifndef DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
#define DELOREAN_STORE_ARCHIVE_DETAIL_HPP_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
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

// ----- shared metadata ------------------------------------------------------

/** Serialize @p rec's run identity (RunInfo field order). */
void putRunInfo(std::ostream &out, const Recording &rec);

/** Parse and validate a putRunInfo() block. */
RunInfo getRunInfo(std::istream &in);

/** Serialize @p rec's end-of-run values (FinalStats field order). */
void putFinalStats(std::ostream &out, const Recording &rec);

/** Parse a putFinalStats() block for a run of @p num_procs. */
FinalStats getFinalStats(std::istream &in, unsigned num_procs);

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
 * thread). The cut fills index, startGcc, raw and info's endGcc,
 * rawBytes and checkpoint; the codec fills payload and info's
 * compBytes and crc32. Sinks may fill the rest.
 */
struct StagedSegment
{
    std::size_t index = 0;       ///< zero-based cut order
    std::uint64_t startGcc = 0;  ///< GCC at the previous boundary
    ArchiveSegmentInfo info;
    std::string raw;             ///< payload, freed once compressed
    EncodedBlob payload;
    EncodedBlob extra;           ///< sink-defined (see encodeExtra)
};

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

    /**
     * Feeder thread, after each cut, while @p rec is still live:
     * record whatever only the live recording knows.
     */
    virtual void annotate(const Recording &, const Boundary &,
                          const Boundary &, StagedSegment &)
    {
    }

    /**
     * Codec pool, alongside the payload's compression: encode any
     * second blob of @p seg into seg.extra. Default: none.
     */
    virtual void encodeExtra(StagedSegment &) {}

    /** Flusher thread: commit one encoded batch, in cut order. */
    virtual void commit(std::vector<StagedSegment> &batch) = 0;
};

/**
 * The segment-writing pipeline behind StreamingArchiveWriter and
 * RingArchiveWriter. The *feeder* (recording) thread cuts segment
 * payloads synchronously — boundary math and buildSegmentPayload read
 * the live recording, which keeps growing after each hook returns —
 * and stages owned StagedSegments. The *flusher* thread compresses a
 * snatched batch over the codec pool and hands it to the sink; while
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

/**
 * CRC-check, LZ77-decompress and size-check one stored blob. Every
 * failure is an ArchiveError in @p section naming @p index, its
 * message led by @p what ("payload", "footer", ...).
 */
std::vector<std::uint8_t> inflate(const std::uint8_t *comp,
                                  std::uint64_t comp_bytes,
                                  std::uint64_t crc,
                                  std::uint64_t raw_bytes,
                                  ArchiveSection section,
                                  std::size_t index, const char *what);

/** Inflated payload of segment i (an ArchiveError on failure). */
using PayloadFn = std::function<std::vector<std::uint8_t>(std::size_t)>;

/**
 * Reject an interval request (@p from, @p to) over @p count
 * checkpoints with CheckpointOutOfRangeError; @p to may be
 * ArchiveReader::kToEnd.
 */
void checkInterval(std::size_t from, std::size_t to, std::size_t count);

/**
 * Whole-recording read: decode segments 0..count-1 and append them
 * with their shard masks, then restore @p checkpoints and the full
 * @p fin. Validated before return.
 */
Recording assembleAll(const RunInfo &run, const FinalStats &fin,
                      WorkerPool &pool, std::size_t count,
                      const PayloadFn &payload,
                      std::vector<SystemCheckpoint> checkpoints);

/**
 * Interval read: a synthetic prefix up to @p start, then segments
 * first..first+count-1 (maskless: interval replay is total-order),
 * the start checkpoint at checkpoints[0] and, when bounded, @p stop
 * at checkpoints[1]. Restores @p fin's fingerprint only. Validated
 * before return.
 */
Recording assembleInterval(const RunInfo &run, const FinalStats &fin,
                           WorkerPool &pool,
                           const SystemCheckpoint &start,
                           const SystemCheckpoint *stop,
                           std::size_t first, std::size_t count,
                           const PayloadFn &payload);

} // namespace archive_detail
} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
