/**
 * @file
 * Processor Interleaving (PI) log.
 *
 * One entry per chunk commit, written by the arbiter: just the ID of
 * the committing processor (Table 3). With 8 processors plus the DMA
 * pseudo-processor an entry is 4 bits (Table 5). During replay the
 * arbiter walks the log and grants commit permissions in exactly the
 * recorded order.
 */

#ifndef DELOREAN_CORE_PI_LOG_HPP_
#define DELOREAN_CORE_PI_LOG_HPP_

#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/types.hpp"

namespace delorean
{

/**
 * Append/read PI log. Entries are procIDs; DMA has its own ID.
 *
 * Format v2 partial-order extension: when the machine runs a sharded
 * arbiter hierarchy (numArbiters > 1), every entry additionally
 * carries the committing chunk's *shard mask* — one bit per address
 * shard the chunk's read/write line sets touch. The entry sequence is
 * still a valid total order (the order the root/shard arbiters
 * actually granted), so a v2 log always replays under the classic
 * total-order cursor; the masks let a PartialOrderCursor relax it to
 * exactly the recorded per-shard orders plus per-processor program
 * order. Masks are all-or-nothing per log (enableMasks()).
 */
class PiLog
{
  public:
    /**
     * @param num_procs processor count; the DMA is encoded as
     *        @p num_procs, so entries use ceil(log2(num_procs+1)) bits
     *        (4 bits for the 8-processor machine).
     */
    explicit PiLog(unsigned num_procs);

    /** Record a chunk commit by @p proc (or kDmaProcId). */
    void append(ProcId proc);

    /**
     * Switch the log to partial-order (masked) form. Must be called
     * while the log is empty; every entry must then be appended with
     * appendWithMask(). @p shard_count sets the mask width used for
     * log-size accounting (one bit per shard).
     */
    void enableMasks(unsigned shard_count);

    /** Record a commit plus its shard mask (requires enableMasks). */
    void appendWithMask(ProcId proc, std::uint64_t shard_mask);

    /** True when entries carry shard masks (partial-order v2 log). */
    bool hasMasks() const { return mask_bits_ != 0; }

    /** Mask width in bits (the shard count); 0 for total-order logs. */
    unsigned maskBits() const { return mask_bits_; }

    /** Shard mask of entry @p i (0 for total-order logs). */
    std::uint64_t
    maskAt(std::size_t i) const
    {
        return hasMasks() ? masks_[i] : 0;
    }

    std::size_t entryCount() const { return entries_.size(); }

    /** Entry @p i, decoded (kDmaProcId for DMA slots). */
    ProcId
    entryAt(std::size_t i) const
    {
        return entries_[i] == dma_code_ ? kDmaProcId
                                        : static_cast<ProcId>(entries_[i]);
    }

    /** Entry width in bits. */
    unsigned entryBits() const { return entry_bits_; }

    /**
     * Total log size in bits. Masked (partial-order) logs pay the
     * mask width per entry on top of the procID; total-order logs are
     * bit-identical to format v1 accounting.
     */
    std::uint64_t
    sizeBits() const
    {
        return entries_.size()
               * static_cast<std::uint64_t>(entry_bits_ + mask_bits_);
    }

    /** Bit-packed image (for LZ77 compression measurement). */
    const std::vector<std::uint8_t> &packedBytes() const;

    /** Accumulator spills performed by the packed writer. */
    std::uint64_t wordFlushes() const { return packed_.wordFlushes(); }

  private:
    unsigned num_procs_;
    unsigned entry_bits_;
    unsigned mask_bits_ = 0;
    std::uint16_t dma_code_;
    std::vector<std::uint16_t> entries_;
    std::vector<std::uint64_t> masks_;
    /// Entries bit-packed as they are appended, so packedBytes() is
    /// O(1) instead of re-encoding the whole log per measurement.
    BitWriter packed_;
};

/** Sequential reader used by the replay arbiter. */
class PiLogCursor
{
  public:
    explicit PiLogCursor(const PiLog &log) : log_(&log) {}

    bool atEnd() const { return pos_ >= log_->entryCount(); }

    /** Next committing proc without consuming. */
    ProcId peek() const { return log_->entryAt(pos_); }

    /** Consume the next entry. */
    ProcId
    next()
    {
        return log_->entryAt(pos_++);
    }

    std::size_t position() const { return pos_; }

  private:
    const PiLog *log_;
    std::size_t pos_ = 0;
};

/**
 * Partial-order reader over a masked (v2) PI log.
 *
 * The recorded constraints are exactly:
 *   - per-shard order: entries whose masks share shard s commit in
 *     log order relative to each other (s's arbiter serialized them);
 *   - per-processor program order: a processor's entries (DMA counts
 *     as its own pseudo-processor) commit in log order.
 *
 * An entry is *enabled* when it is the head of its processor queue
 * and the head of every shard queue its mask names. Any consumption
 * sequence of enabled entries is an execution the shard hierarchy
 * could have produced; the log's own total order is always one of
 * them, and the globally smallest unconsumed entry is always enabled,
 * so the cursor can never deadlock on a valid log.
 */
class PartialOrderCursor
{
  public:
    /** @p log must have masks; masks must be validated (see
     *  validateRecording) before a cursor is built over them. */
    PartialOrderCursor(const PiLog &log, unsigned num_procs,
                       unsigned shards);

    bool atEnd() const { return consumed_ == log_->entryCount(); }

    std::size_t consumed() const { return consumed_; }

    /** True when @p proc has an unconsumed entry left. */
    bool
    procHasEntries(ProcId proc) const
    {
        const unsigned q = queueOf(proc);
        return proc_head_[q] < proc_queue_[q].size();
    }

    /** True when @p proc's next entry is enabled (may commit now). */
    bool procReady(ProcId proc) const;

    /** True when the DMA pseudo-processor's next entry is enabled. */
    bool dmaReady() const { return procReady(kDmaProcId); }

    /**
     * Consume @p proc's head entry (requires procReady). Returns the
     * consumed entry's index in the log.
     */
    std::size_t consumeProc(ProcId proc);

    /**
     * Commit position of entry @p i among non-DMA entries: the index
     * its CommitRecord occupies in the execution fingerprint. Lets an
     * out-of-order retirer fill the fingerprint positionally so the
     * result is byte-identical to an in-order replay's.
     */
    std::size_t
    chunkPosOf(std::size_t i) const
    {
        return chunk_pos_[i];
    }

    /** Non-DMA entry count (the fingerprint's commit-record count). */
    std::size_t chunkEntryCount() const { return chunk_entries_; }

    /**
     * Smallest unconsumed entry index — the point an in-order replay
     * would be at. Consuming any other enabled entry is a retire the
     * partial order permitted but the total order would have stalled.
     */
    std::size_t lowWatermark() const { return low_; }

  private:
    unsigned
    queueOf(ProcId proc) const
    {
        return proc == kDmaProcId ? num_procs_
                                  : static_cast<unsigned>(proc);
    }

    const PiLog *log_;
    unsigned num_procs_;
    unsigned shards_;
    std::size_t consumed_ = 0;
    std::size_t chunk_entries_ = 0;
    /// Entry indices per processor (index num_procs_ = DMA), with a
    /// consumed-head offset per queue.
    std::vector<std::vector<std::uint32_t>> proc_queue_;
    std::vector<std::size_t> proc_head_;
    /// Entry indices per shard, with a consumed-head offset per queue.
    std::vector<std::vector<std::uint32_t>> shard_queue_;
    std::vector<std::size_t> shard_head_;
    /// Entry index -> commit position among non-DMA entries.
    std::vector<std::uint32_t> chunk_pos_;
    /// Consumption bitmap + smallest-unconsumed pointer (lowWatermark).
    std::vector<bool> consumed_flag_;
    std::size_t low_ = 0;
};

} // namespace delorean

#endif // DELOREAN_CORE_PI_LOG_HPP_
