/**
 * @file
 * Recording bundle: everything a DeLorean recording produces, plus
 * the statistics the evaluation section reports.
 */

#ifndef DELOREAN_CORE_RECORDING_HPP_
#define DELOREAN_CORE_RECORDING_HPP_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "compress/lz77.hpp"
#include "core/checkpoint.hpp"
#include "core/cs_log.hpp"
#include "core/fingerprint.hpp"
#include "core/input_logs.hpp"
#include "core/pi_log.hpp"
#include "core/stratifier.hpp"
#include "memory/directory.hpp"

namespace delorean
{

/** Engine statistics (backs Figures 10-12 and Table 6). */
struct EngineStats
{
    Cycle totalCycles = 0;
    InstrCount retiredInstrs = 0;   ///< committed instructions
    InstrCount executedInstrs = 0;  ///< including squashed work
    /// Every dynamic instruction the generators produced, including
    /// squashed and re-executed work — the "simulated instructions"
    /// denominator for harness throughput (instrs/sec).
    InstrCount generatedInstrs = 0;
    /// Host wall-clock seconds the run took (record or replay). Not
    /// architectural: never part of fingerprints or serialized logs.
    double wallSeconds = 0.0;
    std::uint64_t committedChunks = 0;
    std::uint64_t squashes = 0;
    std::uint64_t overflowTruncations = 0;
    std::uint64_t collisionTruncations = 0;
    std::uint64_t hardTruncations = 0; ///< I/O, special instructions
    std::uint64_t replaySplitChunks = 0; ///< unexpected-overflow splits

    // --- commit conflict check ------------------------------------------
    /// Signature pairs whose per-bank summaries intersected, forcing
    /// the full word walk (BulkSC signatures only; exact line-set
    /// disambiguation never consults the signatures).
    std::uint64_t sigSummaryHits = 0;
    /// Signature pairs rejected by the summary precheck alone — full
    /// 2048-bit intersections avoided.
    std::uint64_t sigSummaryRejects = 0;
    /// Commit-time conflict sweeps over the other processors' running
    /// chunks (one per commit with a non-empty write set).
    std::uint64_t conflictSweeps = 0;
    /// Same-cycle arbiter wakeups merged into one drain pass.
    std::uint64_t arbiterWakeupsCoalesced = 0;

    // --- sharded arbiter hierarchy (numArbiters > 1) --------------------
    /// Commits whose shard mask named a single shard — granted by that
    /// shard's arbiter alone.
    std::uint64_t shardLocalCommits = 0;
    /// Commits spanning shards — serialized through the root arbiter.
    std::uint64_t crossShardCommits = 0;
    /// Partial-order replay: grants that consumed a PI entry other
    /// than the smallest unconsumed one — retires the recorded edges
    /// permitted but a total-order replay would have stalled on.
    std::uint64_t poRelaxedRetires = 0;
    /// 64-bit accumulator spills across the PI and CS log writers.
    std::uint64_t logWordFlushes = 0;

    /// Cycles processors spent stalled with all simultaneous chunks
    /// completed but uncommitted (Table 6 "Stall Cycles").
    std::vector<std::uint64_t> perProcStallCycles;

    // --- chunk-parallel replay (lookahead window) ----------------------
    /// Commit slots busy at each replayed grant — how much of the
    /// lookahead window the replay actually used.
    RunningStat replayWindowOccupancy;
    /// Cycles a completed chunk sat ready while the log head named a
    /// processor whose chunk was still executing (the serialization
    /// cost the window cannot remove).
    std::uint64_t replayHeadStallCycles = 0;
    /// Stratified replay: commits retired while another processor
    /// still had budget in the same stratum — commits that exploited
    /// the intra-stratum (conflict-free) ordering freedom.
    std::uint64_t strataRelaxedRetires = 0;

    // --- PicoLog commit-token statistics (Table 6) ---------------------
    RunningStat readyProcsAtCommit; ///< procs with a ready chunk
    RunningStat parallelCommits;    ///< commits overlapping at initiation
    std::uint64_t tokenArrivalsReady = 0;
    std::uint64_t tokenArrivalsNotReady = 0;
    RunningStat waitForTokenCycles;    ///< ready: completion -> token
    RunningStat waitForCompleteCycles; ///< not ready: token -> completion
    RunningStat tokenRoundtripCycles;

    TrafficStats traffic;

    /** Fraction of total machine cycles spent stalled. */
    double
    stallFraction() const
    {
        if (!totalCycles || perProcStallCycles.empty())
            return 0.0;
        std::uint64_t sum = 0;
        for (const auto s : perProcStallCycles)
            sum += s;
        return static_cast<double>(sum)
               / (static_cast<double>(totalCycles)
                  * static_cast<double>(perProcStallCycles.size()));
    }

    /** Percentage of token arrivals that found the processor ready. */
    double
    procReadyPercent() const
    {
        const std::uint64_t total =
            tokenArrivalsReady + tokenArrivalsNotReady;
        return total ? 100.0 * static_cast<double>(tokenArrivalsReady)
                           / static_cast<double>(total)
                     : 0.0;
    }

    /** Simulated cycles per host wall-clock second. */
    double
    simCyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(totalCycles) / wallSeconds
                   : 0.0;
    }

    /** Simulated (generated) instructions per host wall-clock second. */
    double
    simInstrsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(generatedInstrs) / wallSeconds
                   : 0.0;
    }
};

/** Raw and LZ77-compressed sizes of one log. */
struct LogSize
{
    std::uint64_t rawBits = 0;
    std::uint64_t compressedBits = 0;
};

/** Memory-ordering log sizes of a recording. */
struct LogSizeReport
{
    LogSize pi;          ///< PI log (or stratified PI log if enabled)
    LogSize cs;          ///< all CS logs combined
    InstrCount retiredInstrs = 0;
    unsigned numProcs = 1;

    /** Paper metric: bits per processor per kilo-instruction. */
    double
    bitsPerProcPerKiloInstr(bool compressed) const
    {
        // retiredInstrs counts all processors, so dividing by total
        // kilo-instructions already yields a per-processor figure.
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? pi.compressedBits + cs.compressedBits
                       : pi.rawBits + cs.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }

    double
    piBitsPerProcPerKiloInstr(bool compressed) const
    {
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? pi.compressedBits : pi.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }

    double
    csBitsPerProcPerKiloInstr(bool compressed) const
    {
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? cs.compressedBits : cs.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }
};

/** Everything produced by recording one execution. */
struct Recording
{
    MachineConfig machine;
    ModeConfig mode;
    std::string appName;
    std::uint64_t workloadSeed = 0;
    unsigned iterationsPercent = 100;

    PiLog pi{8};
    std::vector<Stratum> strata; ///< filled when mode.stratify... != 0
    std::vector<CsLog> cs;       ///< one per processor
    InterruptLog interrupts{8};
    IoLog io{8};
    DmaLog dma;

    ExecutionFingerprint fingerprint;
    EngineStats stats;

    /// System checkpoints taken during recording (Figure 2), at the
    /// GCC values requested through EngineOptions::checkpointGccs.
    std::vector<SystemCheckpoint> checkpoints;

    bool stratified() const { return mode.stratifyChunksPerProc != 0; }

    /**
     * Expected fingerprint of the interval I(gcc, end): the commits
     * after the first @p gcc, plus the (final) end-of-run state. Used
     * to validate interval replay from a checkpoint (Appendix B).
     */
    ExecutionFingerprint
    fingerprintFrom(std::uint64_t gcc) const
    {
        ExecutionFingerprint fp = fingerprint;
        fp.commits.erase(fp.commits.begin(),
                         fp.commits.begin()
                             + static_cast<long>(std::min<std::size_t>(
                                 gcc - dmaCommitsBefore(gcc),
                                 fp.commits.size())));
        return fp;
    }

    /**
     * Expected fingerprint of I(ckpt.gcc, end), derived from the
     * checkpoint's own per-processor commit counts instead of a PI-log
     * scan — the count of chunk commits before the boundary is
     * sum(committedChunks), for every mode (including stratified
     * recordings, whose PI log has no per-commit entries).
     */
    ExecutionFingerprint
    fingerprintFromCheckpoint(const SystemCheckpoint &ckpt) const
    {
        std::uint64_t chunk_commits = 0;
        for (const ChunkSeq c : ckpt.committedChunks)
            chunk_commits += c;
        ExecutionFingerprint fp = fingerprint;
        fp.commits.erase(fp.commits.begin(),
                         fp.commits.begin()
                             + static_cast<long>(std::min<std::size_t>(
                                 chunk_commits, fp.commits.size())));
        return fp;
    }

    /**
     * Expected fingerprint of the bounded interval I(from, to): the
     * chunk commits between the two checkpoints, with the final state
     * (per-thread acc/retired and memory hash) taken from @p to.
     * @p from may be null for an interval starting at GCC 0.
     */
    ExecutionFingerprint
    fingerprintBetween(const SystemCheckpoint *from,
                       const SystemCheckpoint &to) const
    {
        std::uint64_t lo = 0;
        if (from)
            for (const ChunkSeq c : from->committedChunks)
                lo += c;
        std::uint64_t hi = 0;
        for (const ChunkSeq c : to.committedChunks)
            hi += c;
        lo = std::min<std::uint64_t>(lo, fingerprint.commits.size());
        hi = std::min<std::uint64_t>(hi, fingerprint.commits.size());
        ExecutionFingerprint fp;
        fp.commits.assign(fingerprint.commits.begin()
                              + static_cast<long>(lo),
                          fingerprint.commits.begin()
                              + static_cast<long>(std::max(lo, hi)));
        for (const ThreadContext &ctx : to.contexts) {
            fp.perProcAcc.push_back(ctx.acc);
            fp.perProcRetired.push_back(ctx.retired);
        }
        fp.finalMemHash = to.memory.hash();
        return fp;
    }

    /** DMA commits among the first @p gcc global commits. */
    std::size_t
    dmaCommitsBefore(std::uint64_t gcc) const
    {
        if (mode.mode == ExecMode::kPicoLog) {
            std::size_t n = 0;
            for (std::size_t i = 0; i < dma.count(); ++i)
                n += dma.slotAt(i) < gcc;
            return n;
        }
        std::size_t n = 0;
        for (std::size_t i = 0; i < std::min<std::size_t>(
                                    gcc, pi.entryCount());
             ++i)
            n += pi.entryAt(i) == kDmaProcId;
        return n;
    }

    /** Measure raw + compressed memory-ordering log sizes. */
    LogSizeReport
    logSizes() const
    {
        const Lz77 codec;
        LogSizeReport report;
        report.retiredInstrs = stats.retiredInstrs;
        report.numProcs = machine.numProcs;

        if (mode.mode != ExecMode::kPicoLog) {
            if (stratified()) {
                Stratifier packer(machine.numProcs,
                                  mode.stratifyChunksPerProc);
                // Recompute packing from stored strata.
                std::uint64_t raw = 0;
                BitWriter writer;
                for (const auto &s : strata) {
                    for (const auto c : s.counts) {
                        writer.write(c, packer.counterBits());
                        raw += packer.counterBits();
                    }
                }
                report.pi.rawBits = raw;
                report.pi.compressedBits =
                    codec.compressedBits(writer.bytes());
            } else {
                report.pi.rawBits = pi.sizeBits();
                report.pi.compressedBits =
                    codec.compressedBits(pi.packedBytes());
            }
        }

        for (const auto &log : cs) {
            report.cs.rawBits += log.sizeBits();
            report.cs.compressedBits +=
                codec.compressedBits(log.packedBytes());
        }
        return report;
    }
};

} // namespace delorean

#endif // DELOREAN_CORE_RECORDING_HPP_
