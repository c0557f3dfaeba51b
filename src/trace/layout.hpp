/**
 * @file
 * Simulated physical address-space layout.
 *
 * Regions are widely separated so region membership is a simple range
 * check. Synchronization words (locks, barrier counter/generation)
 * each live on their own cache line to avoid accidental false sharing;
 * false sharing, where a profile wants it, is created inside the
 * shared-data region instead.
 */

#ifndef DELOREAN_TRACE_LAYOUT_HPP_
#define DELOREAN_TRACE_LAYOUT_HPP_

#include "common/types.hpp"

namespace delorean
{

/** Address-space layout helper; pure functions of region bases. */
class AddressLayout
{
  public:
    static constexpr Addr kSharedBase = 0x1000'0000;
    static constexpr Addr kPrivateBase = 0x2000'0000;
    static constexpr Addr kPrivateSpan = 0x0100'0000; ///< per processor
    /// The private region hosts up to 64 processors (the serializer's
    /// numProcs ceiling), so the remaining regions start past
    /// kPrivateBase + 64 * kPrivateSpan.
    static constexpr Addr kLockBase = 0x6000'0000;
    static constexpr Addr kBarrierBase = 0x6100'0000;
    /// Seeded-race words (AppProfile::seededRaceWords) live in their
    /// own region so the known-race manifest is a pure function of the
    /// profile and the detector can tell them from ordinary data.
    static constexpr Addr kRaceBase = 0x6200'0000;
    static constexpr Addr kKernelBase = 0x7000'0000;
    static constexpr Addr kDmaBase = 0x7800'0000;
    static constexpr Addr kIoBase = 0x8000'0000;

    /** i-th word of the shared data region. */
    static constexpr Addr
    sharedWord(std::uint64_t i)
    {
        return kSharedBase + i * kWordBytes;
    }

    /** i-th word of processor @p proc's private region. */
    static constexpr Addr
    privateWord(ProcId proc, std::uint64_t i)
    {
        return kPrivateBase + proc * kPrivateSpan + i * kWordBytes;
    }

    /** Lock word @p id (one per cache line). */
    static constexpr Addr
    lockWord(std::uint32_t id)
    {
        return kLockBase + static_cast<Addr>(id) * kLineBytes;
    }

    /** Central barrier arrival counter. */
    static constexpr Addr barrierCount() { return kBarrierBase; }

    /** Central barrier generation (sense) word. */
    static constexpr Addr
    barrierGen()
    {
        return kBarrierBase + kLineBytes;
    }

    /** i-th seeded-race word (one per cache line). */
    static constexpr Addr
    raceWord(std::uint32_t i)
    {
        return kRaceBase + static_cast<Addr>(i) * kLineBytes;
    }

    /** i-th word of the kernel region (handlers, syscalls). */
    static constexpr Addr
    kernelWord(std::uint64_t i)
    {
        return kKernelBase + i * kWordBytes;
    }

    /** i-th word of the DMA buffer region. */
    static constexpr Addr
    dmaWord(std::uint64_t i)
    {
        return kDmaBase + i * kWordBytes;
    }

    /** i-th uncached I/O port address. */
    static constexpr Addr
    ioPort(std::uint64_t i)
    {
        return kIoBase + i * kWordBytes;
    }

    /** True for uncached (I/O space) addresses. */
    static constexpr bool isUncached(Addr addr) { return addr >= kIoBase; }

    /** True for shared-region addresses. */
    static constexpr bool
    isShared(Addr addr)
    {
        return addr >= kSharedBase && addr < kPrivateBase;
    }

    /** True for private-region addresses. */
    static constexpr bool
    isPrivate(Addr addr)
    {
        return addr >= kPrivateBase && addr < kLockBase;
    }

    /** True for lock words. */
    static constexpr bool
    isLock(Addr addr)
    {
        return addr >= kLockBase && addr < kBarrierBase;
    }

    /** True for the barrier counter/generation words. */
    static constexpr bool
    isBarrier(Addr addr)
    {
        return addr >= kBarrierBase && addr < kRaceBase;
    }

    /** True for seeded-race words. */
    static constexpr bool
    isRace(Addr addr)
    {
        return addr >= kRaceBase && addr < kKernelBase;
    }

    /** True for DMA buffer addresses. */
    static constexpr bool
    isDma(Addr addr)
    {
        return addr >= kDmaBase && addr < kIoBase;
    }

    /// Word lanes per stripe group (8 words = two 32 B lines).
    static constexpr std::uint64_t kLaneCount = 8;

    /**
     * Stripe a shared word index onto processor @p proc's word lane
     * within an 8-word group. The generator routes every cross-thread
     * shared-data access (partition, hot set, remote stores, kernel
     * shared slice) through this so concurrent threads contend on
     * *lines* — driving chunk conflicts, squashes and strata cuts —
     * while never touching the same *word* unsynchronized. That keeps
     * the stock applications free of word-level data races, which the
     * happens-before detector (src/analysis) asserts. Word-shared data
     * stays word-shared only where a happens-before edge protects it
     * (per-lock critical-section regions) or where a race is wanted
     * (raceWord). Lanes wrap at kLaneCount processors; detector tests
     * keep numProcs <= kLaneCount.
     */
    static constexpr std::uint64_t
    stripedIndex(std::uint64_t idx, ProcId proc)
    {
        return (idx & ~(kLaneCount - 1)) | (proc % kLaneCount);
    }

    /**
     * Page-like "segment" index of a private-region address, used by
     * the first-touch trap model. 8 KB segments.
     */
    static constexpr unsigned
    privateSegment(Addr addr)
    {
        return static_cast<unsigned>(((addr - kPrivateBase) % kPrivateSpan)
                                     >> 13);
    }
};

} // namespace delorean

#endif // DELOREAN_TRACE_LAYOUT_HPP_
