/**
 * @file
 * Rotating segmented ring archive: always-on recording with a bounded
 * disk budget and a bounded replay-start lag.
 *
 * The `.dla` container (store/archive) holds a whole run; the
 * ring holds a sliding window of one. A ring is a directory:
 *
 *   ring.meta       one-time metadata (machine, mode, app, knobs)
 *   seg-<id>        one file per checkpoint interval, self-describing
 *   ring.index      retained-set snapshot, atomically rewritten
 *
 * Each segment file is one segment record (store/archive.hpp): its
 * own header — magic, segment id, GCC interval — then the START and
 * END system checkpoint images, then the payload, every blob CRC'd.
 * Any contiguous run of surviving segment files is therefore
 * independently decodable and *validatable* without an index: replay
 * can start at any retained segment's start checkpoint and every
 * bounded interval is judged against the end checkpoint it runs to.
 * A `.dla` packs the very same records into one file (minus the start
 * images, which a contiguous run never needs): both containers run
 * the same segment pipeline and record writer
 * (store/archive_detail.hpp) and differ only in where a record lands.
 *
 * Availability guarantee (the checkpoint-placement contract): with
 * checkpoints every P commits, a segment spans at most P commits and
 * becomes durable when the next checkpoint cuts it. At any frontier
 * GCC g >= P the newest durable segment's start checkpoint is at
 * most 2P-1 commits behind g (worst case: the in-progress segment is
 * one commit short of cutting, so the newest *complete* segment
 * started two periods ago). Eviction never removes the newest
 * complete segment, so a decodable replay starting point always
 * exists within the last T cycles provided T >= 2P —
 * RingOptions::validate() rejects anything tighter with a typed
 * ConfigError. The disk budget bounds retained bytes best-effort:
 * oldest whole segments are evicted first, and when the protected
 * newest segment alone exceeds the budget the writer keeps it and
 * counts a budgetOverrun instead of giving up the guarantee.
 *
 * Crash consistency: segment files are written append-only in id
 * order and ring.index is replaced via write-to-temp + rename. After
 * a crash (torn tail segment, missing or stale index),
 * RingArchiveReader::open falls back to a directory scan, drops
 * structurally invalid files, and retains the newest contiguous run
 * of valid segments — salvage, never a crash or a silent wrong
 * answer.
 */

#ifndef DELOREAN_STORE_RING_HPP_
#define DELOREAN_STORE_RING_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "store/archive.hpp"

namespace delorean
{

/** Configuration of a ring archive. */
struct RingOptions
{
    /// Retained-bytes target. Oldest segments are evicted once the
    /// live set exceeds this; the newest complete segment is never
    /// evicted (see budgetOverruns).
    std::uint64_t budgetBytes = 4u << 20;

    /// Commits between checkpoints — the placement period P the
    /// recorder must be driven with (Recorder::record's
    /// checkpoint_period). Segments are cut at every checkpoint.
    std::uint64_t checkpointPeriod = 50;

    /// Replay-start lag bound T, in commits: a decodable starting
    /// point must exist within the last T commits. 0 resolves to the
    /// tightest feasible bound, 2 * checkpointPeriod.
    std::uint64_t maxReplayLag = 0;

    /// Codec parallelism for segment compress/decode.
    ArchiveIoOptions io{};

    /** maxReplayLag with the 0-default resolved (2P). */
    std::uint64_t resolvedLag() const;

    /**
     * Reject infeasible configurations with a typed ConfigError:
     * zero period or budget, or maxReplayLag < 2 * checkpointPeriod
     * (no placement of period-P checkpoints can keep a durable start
     * point closer than 2P-1 commits behind the frontier).
     */
    void validate() const;
};

/** Writer-side counters (RingArchiveWriter::stats). */
struct RingWriterStats
{
    std::uint64_t segmentsCut = 0;
    std::uint64_t segmentsEvicted = 0;
    std::uint64_t liveBytes = 0;     ///< retained segment files
    std::uint64_t bytesWritten = 0;  ///< cumulative, incl. evicted
    /// Commits the live set exceeded the budget with nothing left to
    /// evict (the protected newest segment alone is over budget).
    std::uint64_t budgetOverruns = 0;
    /// Worst observed replay-start lag, in commits: at the moment a
    /// segment completed, how far its end ran ahead of the then-newest
    /// durable start checkpoint. Bounded by 2P - 1 <= T.
    std::uint64_t worstStartLag = 0;
    /// Largest observed checkpoint spacing (commits).
    std::uint64_t maxCheckpointSpacing = 0;
};

/**
 * Streams a recording into a ring directory. Drive it exactly like
 * StreamingArchiveWriter: pass it as (or call it from) the engine's
 * onCheckpoint hook while recording, then close(rec) with the
 * finished recording. It is the same segment pipeline with a
 * different sink: segment payload build runs on the caller's thread;
 * compression, file writes, eviction and index rewrites run on a
 * background flusher so recording never blocks on the disk. A write
 * failure (ArchiveWriteError) surfaces from the next call and closes
 * the writer, as for StreamingArchiveWriter.
 */
class RingArchiveWriter
{
  public:
    /**
     * @throws ConfigError when @p opts is infeasible (validate()).
     * The directory is created if absent; stale ring files from a
     * previous run in the same directory are removed.
     */
    RingArchiveWriter(const std::string &dir, const RingOptions &opts);
    ~RingArchiveWriter();

    RingArchiveWriter(const RingArchiveWriter &) = delete;
    RingArchiveWriter &operator=(const RingArchiveWriter &) = delete;

    /** EngineOptions::onCheckpoint-compatible feed. */
    void onCheckpoint(const Recording &rec);

    /**
     * Cut the tail segment, drain the flusher and write the clean
     * index (final stats included). The writer is unusable after.
     */
    void close(const Recording &rec);

    /** True once close() was called or a write failed. */
    bool closed() const;

    const std::string &directory() const;

    RingWriterStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Batch convenience: feed a finished recording and close. */
RingWriterStats writeRing(const Recording &rec, const std::string &dir,
                          const RingOptions &opts);

/** How RingArchiveReader::open arrived at the retained set. */
struct RingRecoveryInfo
{
    /// ring.index was present, intact and agreed with the scan.
    bool usedIndex = false;
    /// Clean close: tail segment retained and final stats available
    /// (unbounded reads and readAll work).
    bool clean = false;
    /// Segment files dropped during salvage (torn, corrupt,
    /// non-contiguous or duplicate).
    std::size_t droppedSegments = 0;
    /// Human-readable salvage notes, deterministic order.
    std::vector<std::string> notes;
};

/**
 * Reads a ring directory, recovering the retained window even after
 * a crash. All failure modes are typed: a missing or corrupt
 * container raises ArchiveError, an interval request outside the
 * retained window raises CheckpointOutOfRangeError. Seeks and reads
 * are the shared SegmentArchiveReader's; unbounded reads and readAll
 * need a clean close (the final stats live in the clean index),
 * bounded intervals work on salvaged rings too, and readAll also
 * needs segment 0 (nothing evicted).
 */
class RingArchiveReader : public SegmentArchiveReader
{
  public:
    /** True when @p dir has a plausible ring.meta. */
    static bool looksLikeRing(const std::string &dir);

    static RingArchiveReader open(const std::string &dir,
                                  const ArchiveIoOptions &io = {});

    /** The options the ring was recorded with (from ring.meta). */
    const RingOptions &options() const { return opts_; }

    const RingRecoveryInfo &recovery() const { return recovery_; }

    /** Retained window in GCC space: (startGcc, endGcc]. */
    std::uint64_t startGcc() const;
    std::uint64_t endGcc() const;

  private:
    RingArchiveReader() = default;

    const std::uint8_t *fetch(std::size_t pos, std::uint64_t offset,
                              std::uint64_t bytes,
                              std::vector<std::uint8_t> &scratch)
        const override;

    RingOptions opts_;
    RingRecoveryInfo recovery_;
    std::vector<std::string> seg_paths_; ///< parallel to segments()
};

} // namespace delorean

#endif // DELOREAN_STORE_RING_HPP_
