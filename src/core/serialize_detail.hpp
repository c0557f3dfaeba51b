/**
 * @file
 * Shared binary-serialization primitives.
 *
 * The recording container (core/serialize.cpp) and the archive
 * container (store/archive.cpp) write the same little-endian
 * primitives — u64 fields, length-prefixed strings, ThreadContext
 * images, machine/mode headers and SystemCheckpoints. They live here
 * so the two formats cannot drift apart: an archived checkpoint is
 * byte-identical to one embedded in a .dlr recording.
 */

#ifndef DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
#define DELOREAN_CORE_SERIALIZE_DETAIL_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "core/checkpoint.hpp"

namespace delorean
{
namespace serialize_detail
{

inline void
putU64(std::ostream &out, std::uint64_t v)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out.write(reinterpret_cast<const char *>(bytes), 8);
}

inline std::uint64_t
getU64(std::istream &in)
{
    std::uint8_t bytes[8];
    in.read(reinterpret_cast<char *>(bytes), 8);
    if (!in)
        throw RecordingFormatError("file truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return v;
}

inline void
putString(std::ostream &out, const std::string &s)
{
    putU64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string
getString(std::istream &in)
{
    const std::uint64_t n = getU64(in);
    if (n > (1u << 20))
        throw RecordingFormatError("string too long");
    std::string s(n, '\0');
    in.read(s.data(), static_cast<std::streamsize>(n));
    if (!in)
        throw RecordingFormatError("file truncated");
    return s;
}

static_assert(std::is_trivially_copyable_v<ThreadContext>,
              "ThreadContext must stay trivially copyable: checkpoints "
              "serialize it by value");

static_assert(std::is_standard_layout_v<ThreadContext>
                  && std::is_standard_layout_v<Instr>,
              "putContext addresses ThreadContext fields by offsetof");

/**
 * The context image: every field at its in-memory offset, padding
 * zero. Copying the whole struct would store whatever its padding
 * bytes happen to hold, so equal contexts could serialize unequally.
 */
inline void
putContext(std::ostream &out, const ThreadContext &ctx)
{
    char buf[sizeof(ThreadContext)] = {};
    const auto field = [&buf](std::size_t offset, const auto &value) {
        std::memcpy(buf + offset, &value, sizeof value);
    };
    using C = ThreadContext;
    field(offsetof(C, proc), ctx.proc);
    field(offsetof(C, rng), ctx.rng);
    field(offsetof(C, acc), ctx.acc);
    field(offsetof(C, retired), ctx.retired);
    field(offsetof(C, state), ctx.state);
    field(offsetof(C, iter), ctx.iter);
    field(offsetof(C, workRemaining), ctx.workRemaining);
    field(offsetof(C, subRemaining), ctx.subRemaining);
    field(offsetof(C, lockId), ctx.lockId);
    field(offsetof(C, barrierGenSeen), ctx.barrierGenSeen);
    field(offsetof(C, ioRemaining), ctx.ioRemaining);
    field(offsetof(C, pendingBarrier), ctx.pendingBarrier);
    field(offsetof(C, pendingLock), ctx.pendingLock);
    field(offsetof(C, pendingSyscall), ctx.pendingSyscall);
    field(offsetof(C, pendingIo), ctx.pendingIo);
    field(offsetof(C, privCursor), ctx.privCursor);
    field(offsetof(C, sharedCursor), ctx.sharedCursor);
    field(offsetof(C, privStoreBase), ctx.privStoreBase);
    field(offsetof(C, sharedStoreBase), ctx.sharedStoreBase);
    field(offsetof(C, workPhase), ctx.workPhase);
    field(offsetof(C, workPhaseLeft), ctx.workPhaseLeft);
    field(offsetof(C, trapRemaining), ctx.trapRemaining);
    field(offsetof(C, hasPendingAccess), ctx.hasPendingAccess);
    const std::size_t access = offsetof(C, pendingAccess);
    field(access + offsetof(Instr, op), ctx.pendingAccess.op);
    field(access + offsetof(Instr, addr), ctx.pendingAccess.addr);
    field(access + offsetof(Instr, value), ctx.pendingAccess.value);
    field(offsetof(C, handlerRemaining), ctx.handlerRemaining);
    field(offsetof(C, ioLoadCount), ctx.ioLoadCount);
    field(offsetof(C, done), ctx.done);
    field(offsetof(C, raceRemaining), ctx.raceRemaining);
    field(offsetof(C, mappedSegs), ctx.mappedSegs);
    out.write(buf, sizeof(ThreadContext));
}

inline ThreadContext
getContext(std::istream &in)
{
    char buf[sizeof(ThreadContext)];
    in.read(buf, sizeof(ThreadContext));
    if (!in)
        throw RecordingFormatError("file truncated");
    ThreadContext ctx;
    std::memcpy(&ctx, buf, sizeof(ThreadContext));
    return ctx;
}

inline void
putMode(std::ostream &out, const ModeConfig &mode)
{
    putU64(out, static_cast<std::uint64_t>(mode.mode));
    putU64(out, mode.chunkSize);
    putU64(out, mode.varSizeTruncatePercent);
    putU64(out, mode.csDistanceBits);
    putU64(out, mode.csSizeBits);
    putU64(out, mode.piProcIdBits);
    putU64(out, mode.stratifyChunksPerProc);
}

inline ModeConfig
getMode(std::istream &in)
{
    ModeConfig mode;
    mode.mode = static_cast<ExecMode>(getU64(in));
    mode.chunkSize = getU64(in);
    mode.varSizeTruncatePercent = static_cast<unsigned>(getU64(in));
    mode.csDistanceBits = static_cast<unsigned>(getU64(in));
    mode.csSizeBits = static_cast<unsigned>(getU64(in));
    mode.piProcIdBits = static_cast<unsigned>(getU64(in));
    mode.stratifyChunksPerProc = static_cast<unsigned>(getU64(in));
    return mode;
}

/** Machine header: 12 u64 fields since format v2 (numArbiters last). */
inline void
putMachine(std::ostream &out, const MachineConfig &m)
{
    putU64(out, m.numProcs);
    putU64(out, m.mem.l1SizeBytes);
    putU64(out, m.mem.l1Ways);
    putU64(out, m.mem.l2SizeBytes);
    putU64(out, m.mem.l2Ways);
    putU64(out, m.bulk.signatureBits);
    putU64(out, m.bulk.commitArbitration);
    putU64(out, m.bulk.maxConcurrentCommits);
    putU64(out, m.bulk.simultaneousChunks);
    putU64(out, m.bulk.collisionBackoffThreshold);
    putU64(out, m.bulk.exactDisambiguation ? 1 : 0);
    putU64(out, m.bulk.numArbiters);
}

/** Read the 12-field machine header putMachine() writes. */
inline MachineConfig
getMachine(std::istream &in)
{
    MachineConfig m;
    m.numProcs = static_cast<unsigned>(getU64(in));
    m.mem.l1SizeBytes = static_cast<unsigned>(getU64(in));
    m.mem.l1Ways = static_cast<unsigned>(getU64(in));
    m.mem.l2SizeBytes = static_cast<unsigned>(getU64(in));
    m.mem.l2Ways = static_cast<unsigned>(getU64(in));
    m.bulk.signatureBits = static_cast<unsigned>(getU64(in));
    m.bulk.commitArbitration = getU64(in);
    m.bulk.maxConcurrentCommits = static_cast<unsigned>(getU64(in));
    m.bulk.simultaneousChunks = static_cast<unsigned>(getU64(in));
    m.bulk.collisionBackoffThreshold =
        static_cast<unsigned>(getU64(in));
    m.bulk.exactDisambiguation = getU64(in) != 0;
    m.bulk.numArbiters = static_cast<unsigned>(getU64(in));
    return m;
}

/**
 * SystemCheckpoint image: gcc, dmaConsumed, rrNext, per-proc
 * {context, committedChunks}, then the memory population as
 * (addr, value) pairs in the snapshot's own iteration order —
 * deterministic for a given MemoryState, which keeps
 * save(load(x)) == x byte-exact.
 */
inline void
putCheckpoint(std::ostream &out, const SystemCheckpoint &ckpt)
{
    putU64(out, ckpt.gcc);
    putU64(out, ckpt.dmaConsumed);
    putU64(out, ckpt.rrNext);
    putU64(out, ckpt.contexts.size());
    for (std::size_t p = 0; p < ckpt.contexts.size(); ++p) {
        putContext(out, ckpt.contexts[p]);
        putU64(out, ckpt.committedChunks[p]);
    }
    putU64(out, ckpt.memory.population());
    // Canonical (address-sorted) word order: MemoryState iteration
    // order depends on insertion history, so two states holding the
    // same words can stream them differently. Sorting makes the
    // serialized image a pure function of the checkpoint's content —
    // the archive's byte-identity guarantee depends on this.
    std::vector<std::pair<Addr, std::uint64_t>> words;
    words.reserve(ckpt.memory.population());
    ckpt.memory.forEachWord([&words](Addr addr, std::uint64_t value) {
        words.emplace_back(addr, value);
    });
    std::sort(words.begin(), words.end());
    for (const auto &[addr, value] : words) {
        putU64(out, addr);
        putU64(out, value);
    }
}

inline SystemCheckpoint
getCheckpoint(std::istream &in)
{
    SystemCheckpoint ckpt;
    ckpt.gcc = getU64(in);
    ckpt.dmaConsumed = static_cast<std::size_t>(getU64(in));
    ckpt.rrNext = static_cast<ProcId>(getU64(in));
    const std::uint64_t n = getU64(in);
    if (n > 64)
        throw RecordingFormatError("checkpoint context count "
                                   + std::to_string(n)
                                   + " outside [0, 64]");
    for (std::uint64_t p = 0; p < n; ++p) {
        ckpt.contexts.push_back(getContext(in));
        ckpt.committedChunks.push_back(getU64(in));
    }
    const std::uint64_t words = getU64(in);
    for (std::uint64_t k = 0; k < words; ++k) {
        const Addr addr = getU64(in);
        const std::uint64_t value = getU64(in);
        ckpt.memory.store(addr, value);
    }
    return ckpt;
}

} // namespace serialize_detail
} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
