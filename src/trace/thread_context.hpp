/**
 * @file
 * Checkpointable per-thread architectural context.
 *
 * The context is the *complete* architectural state of a thread's
 * program: RNG, phase machine, synchronization state, accumulator.
 * Chunk squash = restore a saved copy; chunk checkpoint = take a copy.
 * Everything the generator does is a deterministic function of this
 * state plus the values loaded from memory, which is what makes
 * deterministic replay a provable property (Appendix B, Observation 1).
 */

#ifndef DELOREAN_TRACE_THREAD_CONTEXT_HPP_
#define DELOREAN_TRACE_THREAD_CONTEXT_HPP_

#include <bitset>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "trace/instr.hpp"

namespace delorean
{

/** Phase machine states of the workload generator. */
enum class ThreadState : std::uint8_t
{
    kIterStart,  ///< decide what this iteration does
    kWork,       ///< private/shared compute loop
    kLockTest,   ///< spinning: load lock word
    kLockTas,    ///< saw it free: try atomic swap
    kCritical,   ///< inside critical section
    kUnlock,     ///< store releasing the lock
    kBarArrive,  ///< fetch-add on barrier counter
    kBarReset,   ///< last arriver: reset counter
    kBarRelease, ///< last arriver: bump generation
    kBarSpin,    ///< waiting: load generation word
    kSyscall,    ///< special system instruction
    kKernel,     ///< kernel-region work (syscall body)
    kIoCmd,      ///< uncached store initiating I/O
    kIoStatus,   ///< uncached loads polling the device
    kIterEnd,    ///< bookkeeping, advance to next iteration
    kDone,       ///< program finished
};

/** Complete architectural state of one simulated thread. */
struct ThreadContext
{
    ProcId proc = 0;

    /// Program RNG — *architectural*: checkpointed and restored with
    /// the rest of the context, unlike the environment RNG.
    Xoshiro256ss rng;

    /// Dataflow accumulator folding every loaded value; the heart of
    /// the execution fingerprint.
    std::uint64_t acc = 0;

    /// Dynamic instructions retired (committed stream position).
    InstrCount retired = 0;

    ThreadState state = ThreadState::kIterStart;
    std::uint32_t iter = 0;          ///< current outer iteration
    std::uint32_t workRemaining = 0; ///< instrs left in kWork
    std::uint32_t subRemaining = 0;  ///< instrs left in CS / kernel body
    std::uint32_t lockId = 0;        ///< lock being acquired/held
    std::uint64_t barrierGenSeen = 0;///< barrier sense
    std::uint32_t ioRemaining = 0;   ///< status polls left in I/O burst

    // Pending-iteration activity flags, decided at kIterStart.
    bool pendingBarrier = false;
    bool pendingLock = false;
    bool pendingSyscall = false;
    bool pendingIo = false;

    // Strided-access cursors (spatial locality).
    std::uint32_t privCursor = 0;
    std::uint32_t sharedCursor = 0;

    // Store windows: writes concentrate in small, heavily reused
    // regions (stack frames, output tiles), relocated per iteration.
    // This keeps the count of distinct dirty lines per chunk low, so
    // speculative-line overflow stays the rare event it is in the
    // paper (Section 4.2.3).
    std::uint32_t privStoreBase = 0;
    std::uint32_t sharedStoreBase = 0;

    // Bursty work phases (compute-heavy / streaming / scatter):
    // produces realistic chunk-to-chunk duration variance, which is
    // what makes PicoLog's round-robin commit order hurt.
    std::uint8_t workPhase = 0;
    std::uint16_t workPhaseLeft = 0;

    // First-touch trap model: injected kernel work, then the stashed
    // access that faulted is re-issued.
    std::uint16_t trapRemaining = 0;
    bool hasPendingAccess = false;
    Instr pendingAccess;

    // Interrupt handler: injected kernel work preempting any state.
    std::uint16_t handlerRemaining = 0;

    /// Architectural count of I/O loads executed; indexes the I/O log
    /// during replay. Restored on squash so a re-executed chunk
    /// re-reads the same logged values.
    std::uint64_t ioLoadCount = 0;

    bool done = false;

    /// Seeded-race instructions left in this iteration's burst
    /// (2 * AppProfile::seededRaceWords at iteration start: a store
    /// then a load of each race word, deliberately unsynchronized).
    std::uint32_t raceRemaining = 0;

    /// 8 KB segments already touched (first-touch trap model). Kept
    /// LAST so the engine's per-instruction rollback snapshot can
    /// cover every other field with one small prefix copy: generate()
    /// sets at most one segment bit per call (and never clears any),
    /// so the rollback undoes that single bit instead of copying the
    /// whole bitset on every instruction.
    std::bitset<2048> mappedSegs;
};

} // namespace delorean

#endif // DELOREAN_TRACE_THREAD_CONTEXT_HPP_
