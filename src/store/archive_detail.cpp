#include "store/archive_detail.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{
namespace archive_detail
{

using serialize_detail::getCheckpoint;
using serialize_detail::getMachine;
using serialize_detail::getMode;
using serialize_detail::getString;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putMachine;
using serialize_detail::putMode;
using serialize_detail::putString;
using serialize_detail::putU64;

// ----- segment slices -------------------------------------------------------

namespace
{

/**
 * Boundary at @p ckpt; @p segment only labels alignment errors.
 * Throws RecordingFormatError when the checkpoint does not land on a
 * stratum boundary of a stratified recording.
 */
Boundary
boundaryAtCheckpoint(const Recording &rec, const SystemCheckpoint &ckpt,
                     std::size_t segment)
{
    Boundary b;
    b.gcc = ckpt.gcc;
    b.dmaIdx = ckpt.dmaConsumed;
    b.committed = ckpt.committedChunks;
    for (const ThreadContext &ctx : ckpt.contexts)
        b.ioIdx.push_back(ctx.ioLoadCount);
    for (const ChunkSeq c : ckpt.committedChunks)
        b.chunkCommits += c;
    if (rec.stratified()) {
        // Find the stratum boundary matching this checkpoint. The
        // stratifier force-cuts at every checkpoint
        // (Stratifier::cutAtCheckpoint), so an exact match exists for
        // any recorder-produced recording.
        std::uint64_t chunks = 0;
        std::size_t dmas = 0;
        std::size_t idx = 0;
        while (chunks < b.chunkCommits || dmas < b.dmaIdx) {
            if (idx >= rec.strata.size())
                throw RecordingFormatError(
                    "checkpoint at GCC " + std::to_string(ckpt.gcc)
                    + " (segment " + std::to_string(segment)
                    + ") does not align with a stratum boundary");
            const Stratum &s = rec.strata[idx++];
            if (s.isDma) {
                ++dmas;
            } else {
                for (const auto c : s.counts)
                    chunks += c;
            }
        }
        if (chunks != b.chunkCommits || dmas != b.dmaIdx)
            throw RecordingFormatError(
                "checkpoint at GCC " + std::to_string(ckpt.gcc)
                + " (segment " + std::to_string(segment)
                + ") splits a stratum");
        b.strataIdx = idx;
    }
    return b;
}

/** Boundary at the end of the (complete) recording. */
Boundary
boundaryAtEnd(const Recording &rec)
{
    Boundary b;
    b.chunkCommits = rec.fingerprint.commits.size();
    b.gcc = b.chunkCommits + rec.dma.count();
    b.strataIdx = rec.strata.size();
    b.dmaIdx = rec.dma.count();
    const unsigned n = rec.machine.numProcs;
    b.committed.assign(n, 0);
    for (const CommitRecord &c : rec.fingerprint.commits)
        if (c.proc < n)
            b.committed[c.proc] =
                std::max<ChunkSeq>(b.committed[c.proc], c.seq + 1);
    for (ProcId p = 0; p < n; ++p)
        b.ioIdx.push_back(rec.io.countFor(p));
    return b;
}

/** Serialize the log slices between boundaries @p lo and @p hi. */
std::string
buildSegmentPayload(const Recording &rec, const Boundary &lo,
                    const Boundary &hi)
{
    std::ostringstream out(std::ios::binary);
    const auto put = [&out](std::uint64_t v) {
        putU64(out, v);
    };
    const unsigned n = rec.machine.numProcs;

    // PI slice (flat modes; empty for stratified and PicoLog).
    std::uint64_t pi_lo = 0;
    std::uint64_t pi_hi = 0;
    if (!rec.stratified() && rec.mode.mode != ExecMode::kPicoLog) {
        pi_lo = std::min<std::uint64_t>(lo.gcc, rec.pi.entryCount());
        pi_hi = std::min<std::uint64_t>(hi.gcc, rec.pi.entryCount());
    }
    put(pi_hi - pi_lo);
    put(rec.pi.hasMasks() ? 1 : 0);
    for (std::uint64_t i = pi_lo; i < pi_hi; ++i)
        put(rec.pi.entryAt(i));
    if (rec.pi.hasMasks())
        for (std::uint64_t i = pi_lo; i < pi_hi; ++i)
            put(rec.pi.maskAt(i));

    // Strata slice.
    put(hi.strataIdx - lo.strataIdx);
    for (std::size_t i = lo.strataIdx; i < hi.strataIdx; ++i) {
        const Stratum &s = rec.strata[i];
        put(s.isDma ? 1 : 0);
        put(s.counts.size());
        for (const auto c : s.counts)
            put(c);
    }

    // CS slices: per-proc entries with seq in [lo, hi).
    for (ProcId p = 0; p < n; ++p) {
        std::vector<const CsEntry *> slice;
        for (const CsEntry &e : rec.cs[p].entries())
            if (e.seq >= lo.committed[p] && e.seq < hi.committed[p])
                slice.push_back(&e);
        put(slice.size());
        for (const CsEntry *e : slice) {
            put(e->seq);
            put(e->size);
            put(e->maxSize ? 1 : 0);
        }
    }

    // Interrupt slices (same per-proc chunk-seq windows).
    for (ProcId p = 0; p < n; ++p) {
        std::vector<const InterruptRecord *> slice;
        for (const InterruptRecord &e : rec.interrupts.entries(p))
            if (e.chunkSeq >= lo.committed[p]
                && e.chunkSeq < hi.committed[p])
                slice.push_back(&e);
        put(slice.size());
        for (const InterruptRecord *e : slice) {
            put(e->chunkSeq);
            put(e->type);
            put(e->data);
        }
    }

    // I/O slices: dense per-proc index windows.
    for (ProcId p = 0; p < n; ++p) {
        put(hi.ioIdx[p] - lo.ioIdx[p]);
        for (std::uint64_t i = lo.ioIdx[p]; i < hi.ioIdx[p]; ++i)
            put(rec.io.valueAt(p, i));
    }

    // DMA slice.
    put(hi.dmaIdx - lo.dmaIdx);
    for (std::size_t i = lo.dmaIdx; i < hi.dmaIdx; ++i) {
        const DmaTransfer &t = rec.dma.transferAt(i);
        put(rec.dma.slotAt(i));
        put(t.wordAddrs.size());
        for (std::size_t k = 0; k < t.wordAddrs.size(); ++k) {
            put(t.wordAddrs[k]);
            put(t.values[k]);
        }
    }

    // Fingerprint commit slice.
    put(hi.chunkCommits - lo.chunkCommits);
    for (std::uint64_t i = lo.chunkCommits; i < hi.chunkCommits; ++i) {
        const CommitRecord &c = rec.fingerprint.commits[i];
        put(c.proc);
        put(c.seq);
        put(c.size);
        put(c.accAfter);
    }
    return std::move(out).str();
}

/** Decoded counterpart of buildSegmentPayload. */
struct SegmentSlice
{
    std::vector<ProcId> pi;
    bool piHasMasks = false;
    std::vector<std::uint64_t> piMasks;
    std::vector<Stratum> strata;
    std::vector<std::vector<CsEntry>> cs;
    std::vector<std::vector<InterruptRecord>> interrupts;
    std::vector<std::vector<std::uint64_t>> io;
    std::vector<std::pair<DmaTransfer, std::uint64_t>> dma;
    std::vector<CommitRecord> commits;
};

/** Parse a raw (decompressed) payload for @p n processors. */
SegmentSlice
parseSegmentPayload(const std::vector<std::uint8_t> &raw, unsigned n)
{
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(raw.data()),
                    raw.size()),
        std::ios::binary);
    SegmentSlice s;
    const std::uint64_t pi_count = getU64(in);
    const std::uint64_t pi_masked = getU64(in);
    if (pi_masked > 1)
        throw RecordingFormatError("PI mask flag "
                                   + std::to_string(pi_masked)
                                   + " is not a boolean");
    s.piHasMasks = pi_masked != 0;
    for (std::uint64_t i = 0; i < pi_count; ++i)
        s.pi.push_back(static_cast<ProcId>(getU64(in)));
    if (s.piHasMasks)
        for (std::uint64_t i = 0; i < pi_count; ++i)
            s.piMasks.push_back(getU64(in));
    const std::uint64_t strata_count = getU64(in);
    for (std::uint64_t i = 0; i < strata_count; ++i) {
        Stratum st;
        st.isDma = getU64(in) != 0;
        const std::uint64_t c = getU64(in);
        if (c > 64)
            throw RecordingFormatError("stratum counter count "
                                       + std::to_string(c)
                                       + " outside [0, 64]");
        for (std::uint64_t k = 0; k < c; ++k)
            st.counts.push_back(static_cast<std::uint8_t>(getU64(in)));
        s.strata.push_back(std::move(st));
    }
    s.cs.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k) {
            CsEntry e;
            e.seq = getU64(in);
            e.size = getU64(in);
            e.maxSize = getU64(in) != 0;
            s.cs[p].push_back(e);
        }
    }
    s.interrupts.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k) {
            InterruptRecord e;
            e.chunkSeq = getU64(in);
            e.type = static_cast<std::uint8_t>(getU64(in));
            e.data = getU64(in);
            s.interrupts[p].push_back(e);
        }
    }
    s.io.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k)
            s.io[p].push_back(getU64(in));
    }
    const std::uint64_t dma_count = getU64(in);
    for (std::uint64_t i = 0; i < dma_count; ++i) {
        const std::uint64_t slot = getU64(in);
        const std::uint64_t words = getU64(in);
        DmaTransfer t;
        for (std::uint64_t k = 0; k < words; ++k) {
            t.wordAddrs.push_back(getU64(in));
            t.values.push_back(getU64(in));
        }
        s.dma.emplace_back(std::move(t), slot);
    }
    const std::uint64_t commits = getU64(in);
    for (std::uint64_t i = 0; i < commits; ++i) {
        CommitRecord c;
        c.proc = static_cast<ProcId>(getU64(in));
        c.seq = getU64(in);
        c.size = getU64(in);
        c.accAfter = getU64(in);
        s.commits.push_back(c);
    }
    return s;
}

} // namespace

std::uint64_t
readU64At(const std::uint8_t *bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
    return v;
}

bool
readWholeFile(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    return static_cast<bool>(in) || in.eof();
}

// ----- meta and index records ----------------------------------------------

namespace
{

/// Segment record preamble magic.
constexpr std::uint64_t kSegMagic = 0x676553526F4C6544ull; // "DeLoRSeg"
/// Version word of every record preamble.
constexpr std::uint64_t kRecordVersion = 1;
/// Segment preamble: magic, version, segId, header raw size, header
/// compressed size, header CRC-32 (of the compressed bytes). The
/// header blob is followed by the start- and end-checkpoint blobs it
/// describes (each independently LZ77-compressed and CRC'd), then the
/// payload. Keeping the checkpoint images out of the header lets the
/// writer compress each checkpoint exactly once: the blob that closes
/// segment i is byte-reused as the start blob of segment i+1.
constexpr std::size_t kSegPreambleBytes = 48;
/// Header/meta/index blob size cap: fences OOM on garbage files.
constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;
/// Sanity fence on index entry counts.
constexpr std::uint64_t kMaxIndexEntries = 1ull << 20;

void
putRunInfo(std::ostream &out, const Recording &rec)
{
    putMachine(out, rec.machine);
    putMode(out, rec.mode);
    putString(out, rec.appName);
    putU64(out, rec.workloadSeed);
    putU64(out, rec.iterationsPercent);
}

RunInfo
getRunInfo(std::istream &in)
{
    RunInfo run;
    run.machine = getMachine(in);
    run.mode = getMode(in);
    validateRecordingConfigs(run.machine, run.mode);
    run.app = getString(in);
    run.seed = getU64(in);
    run.iterations = static_cast<unsigned>(getU64(in));
    return run;
}

void
putFinalStats(std::ostream &out, const Recording &rec)
{
    putU64(out, rec.stats.totalCycles);
    putU64(out, rec.stats.retiredInstrs);
    putU64(out, rec.stats.executedInstrs);
    putU64(out, rec.stats.committedChunks);
    putU64(out, rec.stats.squashes);
    putU64(out, rec.stats.overflowTruncations);
    putU64(out, rec.stats.collisionTruncations);
    putU64(out, rec.stats.hardTruncations);
    putU64(out, rec.fingerprint.perProcAcc.size());
    for (std::size_t p = 0; p < rec.fingerprint.perProcAcc.size(); ++p) {
        putU64(out, rec.fingerprint.perProcAcc[p]);
        putU64(out, rec.fingerprint.perProcRetired[p]);
    }
    putU64(out, rec.fingerprint.finalMemHash);
}

FinalStats
getFinalStats(std::istream &in, unsigned num_procs)
{
    FinalStats fin;
    for (std::uint64_t &v : fin.engine)
        v = getU64(in);
    const std::uint64_t procs = getU64(in);
    if (procs != num_procs)
        throw RecordingFormatError(
            "fingerprint per-proc count does not match numProcs");
    for (std::uint64_t p = 0; p < procs; ++p) {
        fin.perProcAcc.push_back(getU64(in));
        fin.perProcRetired.push_back(getU64(in));
    }
    fin.finalMemHash = getU64(in);
    return fin;
}

void
putBytes(std::ostream &out, const std::vector<std::uint8_t> &bytes)
{
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Check the meta/index record spanning exactly @p bytes[0, size)
 * (magic, version, blob size, CRC) and point @p in at its blob; a
 * RecordingFormatError says why it is unusable.
 */
void
openBlobRecord(const std::uint8_t *bytes, std::size_t size,
               std::uint64_t magic, std::istringstream &in)
{
    if (size < kBlobPreambleBytes || readU64At(bytes, 0) != magic)
        throw RecordingFormatError(
            "magic missing (not a DeLorean ring archive?)");
    if (readU64At(bytes, 8) != kRecordVersion)
        throw RecordingFormatError("unsupported ring version "
                                   + std::to_string(readU64At(bytes, 8)));
    const std::uint64_t blob = readU64At(bytes, 24);
    if (blob > kMaxBlobBytes || kBlobPreambleBytes + blob != size)
        throw RecordingFormatError("truncated");
    if (crc32(bytes + kBlobPreambleBytes, static_cast<std::size_t>(blob))
        != readU64At(bytes, 32))
        throw RecordingFormatError("CRC mismatch");
    in.str(std::string(reinterpret_cast<const char *>(bytes)
                           + kBlobPreambleBytes,
                       static_cast<std::size_t>(blob)));
}

} // namespace

void
putBlobRecord(std::ostream &out, std::uint64_t magic,
              const std::string &blob)
{
    putU64(out, magic);
    putU64(out, kRecordVersion);
    putU64(out, 0); // reserved
    putU64(out, blob.size());
    putU64(out,
           crc32(reinterpret_cast<const std::uint8_t *>(blob.data()),
                 blob.size()));
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string
metaBlob(const Recording &rec, std::uint64_t budget_bytes,
         std::uint64_t checkpoint_period, std::uint64_t max_replay_lag)
{
    std::ostringstream blob(std::ios::binary);
    putRunInfo(blob, rec);
    putU64(blob, budget_bytes);
    putU64(blob, checkpoint_period);
    putU64(blob, max_replay_lag);
    return std::move(blob).str();
}

Meta
openMetaRecord(const std::uint8_t *bytes, std::size_t size,
               const std::string &what)
{
    try {
        std::istringstream in(std::ios::binary);
        openBlobRecord(bytes, size, kMetaMagic, in);
        Meta meta;
        meta.run = getRunInfo(in);
        meta.budgetBytes = getU64(in);
        meta.checkpointPeriod = getU64(in);
        meta.maxReplayLag = getU64(in);
        return meta;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           what + " " + e.what());
    }
}

std::string
indexBlob(const std::vector<RecordRef> &live, const Recording *closed)
{
    std::ostringstream blob(std::ios::binary);
    putU64(blob, closed ? 1 : 0);
    putU64(blob, live.size());
    for (const RecordRef &ref : live) {
        putU64(blob, ref.segId);
        putU64(blob, ref.bytes);
    }
    if (closed)
        putFinalStats(blob, *closed);
    return std::move(blob).str();
}

IndexInfo
openIndexRecord(const std::uint8_t *bytes, std::size_t size,
                unsigned num_procs)
{
    std::istringstream in(std::ios::binary);
    openBlobRecord(bytes, size, kIndexMagic, in);
    IndexInfo index;
    index.clean = getU64(in) != 0;
    const std::uint64_t count = getU64(in);
    if (count > kMaxIndexEntries)
        throw RecordingFormatError("implausible index segment count");
    for (std::uint64_t i = 0; i < count; ++i) {
        RecordRef ref;
        ref.segId = getU64(in);
        ref.bytes = getU64(in);
        index.live.push_back(ref);
    }
    if (index.clean)
        index.fin = getFinalStats(in, num_procs);
    return index;
}

// ----- writer side ----------------------------------------------------------

void
writeFileChecked(const std::string &path,
                 const std::function<void(std::ostream &)> &body)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw ArchiveWriteError("cannot open " + path + " for write");
    body(out);
    out.close();
    if (!out)
        throw ArchiveWriteError("failed to write " + path);
}

EncodedBlob
encodeBlob(const std::string &raw)
{
    Lz77Stream stream;
    stream.append(reinterpret_cast<const std::uint8_t *>(raw.data()),
                  raw.size());
    EncodedBlob blob;
    blob.rawBytes = raw.size();
    blob.comp = stream.finish();
    blob.crc = crc32(blob.comp.data(), blob.comp.size());
    return blob;
}

std::uint64_t
putSegmentRecord(std::ostream &out, const StagedSegment &seg,
                 const EncodedBlob *start)
{
    const bool has_end = seg.checkpoint.has_value();
    // Self-describing header: the GCC interval plus the sizes and
    // CRCs of the blobs that follow it in the record.
    std::ostringstream hb(std::ios::binary);
    putU64(hb, seg.startGcc);
    putU64(hb, seg.endGcc);
    putU64(hb, has_end ? 0 : 1); // tail flag
    const auto put_blob_ref = [&hb](const EncodedBlob *blob) {
        putU64(hb, blob ? 1 : 0);
        if (blob) {
            putU64(hb, blob->rawBytes);
            putU64(hb, blob->comp.size());
            putU64(hb, blob->crc);
        }
    };
    put_blob_ref(start);
    put_blob_ref(has_end ? &seg.end : nullptr);
    putU64(hb, seg.payload.rawBytes);
    putU64(hb, seg.payload.comp.size());
    putU64(hb, seg.payload.crc);
    const EncodedBlob header = encodeBlob(std::move(hb).str());

    putU64(out, kSegMagic);
    putU64(out, kRecordVersion);
    putU64(out, seg.index);
    putU64(out, header.rawBytes);
    putU64(out, header.comp.size());
    putU64(out, header.crc);
    putBytes(out, header.comp);
    if (start)
        putBytes(out, start->comp);
    putBytes(out, seg.end.comp);
    putBytes(out, seg.payload.comp);
    return kSegPreambleBytes + header.comp.size()
           + (start ? start->comp.size() : 0) + seg.end.comp.size()
           + seg.payload.comp.size();
}

SegmentPipeline::SegmentPipeline(SegmentSink &sink,
                                 const ArchiveIoOptions &io,
                                 const char *who)
    : sink_(sink), io_(io), who_(who)
{
}

void
SegmentPipeline::onCheckpoint(const Recording &rec)
{
    if (closed_)
        throw std::logic_error(std::string(who_)
                               + " used after close or a write failure");
    feed(rec);
    pump();
}

void
SegmentPipeline::finish(const Recording &rec)
{
    if (closed_)
        throw std::logic_error(std::string(who_)
                               + " used after close or a write failure");
    closed_ = true;
    feed(rec);
    stage(rec, boundaryAtEnd(rec), nullptr); // tail segment
    drain();
}

void
SegmentPipeline::feed(const Recording &rec)
{
    if (!initialized_) {
        last_.committed.assign(rec.machine.numProcs, 0);
        last_.ioIdx.assign(rec.machine.numProcs, 0);
        try {
            sink_.begin(rec);
        } catch (...) {
            closed_ = true; // poisoned: the sink is half set up
            throw;
        }
        initialized_ = true;
    }
    while (fed_ < rec.checkpoints.size()) {
        const SystemCheckpoint &ckpt = rec.checkpoints[fed_];
        if (fed_ > 0 && ckpt.gcc <= last_gcc_)
            throw RecordingFormatError(
                "checkpoints are not in ascending GCC order");
        stage(rec, boundaryAtCheckpoint(rec, ckpt, fed_), &ckpt);
        last_gcc_ = ckpt.gcc;
        ++fed_;
    }
}

void
SegmentPipeline::stage(const Recording &rec, Boundary hi,
                       const SystemCheckpoint *ckpt)
{
    StagedSegment seg;
    seg.index = staged_;
    seg.startGcc = last_.gcc;
    seg.endGcc = hi.gcc;
    seg.raw = buildSegmentPayload(rec, last_, hi);
    if (ckpt)
        seg.checkpoint = *ckpt;
    staging_.push_back(std::move(seg));
    last_ = std::move(hi);
    ++staged_;
}

void
SegmentPipeline::awaitFlush()
{
    try {
        flush_.wait();
    } catch (...) {
        closed_ = true; // poisoned: the sink is mid-commit
        throw;
    }
}

void
SegmentPipeline::flushBatch()
{
    std::vector<std::function<void()>> tasks;
    tasks.reserve(2 * flushing_.size());
    for (StagedSegment &seg : flushing_) {
        tasks.push_back([&seg] {
            seg.payload = encodeBlob(seg.raw);
            std::string().swap(seg.raw);
        });
        if (seg.checkpoint)
            tasks.push_back([&seg] {
                std::ostringstream image(std::ios::binary);
                putCheckpoint(image, *seg.checkpoint);
                seg.end = encodeBlob(std::move(image).str());
            });
    }
    Executor::run(tasks, io_.ioThreads);
    sink_.commit(flushing_);
    flushing_.clear();
}

void
SegmentPipeline::pump()
{
    if (!flush_.ready())
        return; // a worker is flushing; keep accumulating
    awaitFlush();
    if (staging_.empty())
        return;
    flushing_ = std::move(staging_);
    staging_.clear();
    flush_ = Executor::post([this] { flushBatch(); }, io_.ioThreads);
    if (flush_.ready())
        awaitFlush(); // no worker can take it: flush on the feeder now
}

void
SegmentPipeline::drain()
{
    awaitFlush();
    if (!staging_.empty()) {
        flushing_ = std::move(staging_);
        staging_.clear();
        flushBatch();
    }
}

// ----- reader side ----------------------------------------------------------

std::vector<std::uint8_t>
inflate(const std::uint8_t *comp, std::uint64_t comp_bytes,
        std::uint64_t crc, std::uint64_t raw_bytes, ArchiveSection section,
        std::size_t index, const char *what)
{
    const std::size_t size = static_cast<std::size_t>(comp_bytes);
    if (crc32(comp, size) != crc)
        throw ArchiveError(section, index,
                           std::string(what) + " CRC mismatch");
    std::vector<std::uint8_t> raw;
    try {
        raw = Lz77().decompress(comp, size);
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(section, index, e.what());
    }
    if (raw.size() != raw_bytes)
        throw ArchiveError(section, index,
                           std::string(what)
                               + " decompressed size mismatch");
    return raw;
}

namespace
{

/**
 * Run @p parse, turning a plain RecordingFormatError (a short or
 * malformed blob) into ArchiveError(kSegment, @p label).
 */
template <typename Fn>
auto
inSegment(std::size_t label, Fn &&parse)
{
    try {
        return parse();
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, label, e.what());
    }
}

/** Inflate a checkpoint image and check it fits its boundary. */
SystemCheckpoint
decodeCheckpoint(const std::uint8_t *comp, const BlobRef &blob,
                 std::uint64_t gcc, unsigned num_procs,
                 std::size_t label, const char *what)
{
    const std::vector<std::uint8_t> raw =
        inflate(comp, blob.compBytes, blob.crc, blob.rawBytes,
                ArchiveSection::kSegment, label, what);
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(raw.data()),
                    raw.size()),
        std::ios::binary);
    SystemCheckpoint ckpt = getCheckpoint(in);
    if (ckpt.gcc != gcc || ckpt.contexts.size() != num_procs
        || ckpt.committedChunks.size() != num_procs)
        throw RecordingFormatError(std::string(what)
                                   + " disagrees with the header");
    return ckpt;
}

} // namespace

ParsedSegment
parseSegmentRecord(const std::uint8_t *bytes, std::size_t size,
                   std::uint64_t file_offset, unsigned num_procs,
                   std::size_t label)
{
    return inSegment(label, [&] {
        if (size < kSegPreambleBytes)
            throw RecordingFormatError("shorter than a segment preamble");
        if (readU64At(bytes, 0) != kSegMagic)
            throw RecordingFormatError("segment magic missing");
        if (readU64At(bytes, 8) != kRecordVersion)
            throw RecordingFormatError("unsupported segment version");
        const std::uint64_t header_raw = readU64At(bytes, 24);
        const std::uint64_t header_comp = readU64At(bytes, 32);
        if (header_raw > kMaxBlobBytes || header_comp > kMaxBlobBytes
            || kSegPreambleBytes + header_comp > size)
            throw RecordingFormatError("torn header");

        ParsedSegment seg;
        SegmentInfo &info = seg.info;
        info.segId = readU64At(bytes, 16);
        info.recordOffset = file_offset;
        info.recordBytes = size;
        const std::vector<std::uint8_t> raw =
            inflate(bytes + kSegPreambleBytes, header_comp,
                    readU64At(bytes, 40), header_raw,
                    ArchiveSection::kSegment, label, "header");
        std::istringstream in(
            std::string(reinterpret_cast<const char *>(raw.data()),
                        raw.size()),
            std::ios::binary);
        info.startGcc = getU64(in);
        info.endGcc = getU64(in);
        info.isTail = getU64(in) != 0;
        const auto get_blob_ref = [&in](BlobRef &blob) {
            if (getU64(in) == 0)
                return false;
            blob.rawBytes = getU64(in);
            blob.compBytes = getU64(in);
            blob.crc = getU64(in);
            return true;
        };
        info.hasStartCheckpoint = get_blob_ref(seg.start);
        info.hasEndCheckpoint = get_blob_ref(seg.end);
        info.rawBytes = getU64(in);
        info.compBytes = getU64(in);
        info.crc32 = getU64(in);

        // Everything the header promises must fit the record exactly:
        // header, start blob, end blob, payload, nothing else.
        if (seg.start.rawBytes > kMaxBlobBytes
            || seg.start.compBytes > size || seg.end.rawBytes > kMaxBlobBytes
            || seg.end.compBytes > size || info.compBytes > size)
            throw RecordingFormatError("implausible blob size");
        std::uint64_t off = kSegPreambleBytes + header_comp;
        if (off + seg.start.compBytes + seg.end.compBytes + info.compBytes
            != size)
            throw RecordingFormatError(
                "record size disagrees with the header (torn payload?)");
        if (info.endGcc < info.startGcc
            || (!info.isTail && info.endGcc <= info.startGcc))
            throw RecordingFormatError("GCC interval not ascending");
        if (info.hasStartCheckpoint && info.segId == 0)
            throw RecordingFormatError(
                "segment 0 stores a start checkpoint");
        if (info.hasEndCheckpoint == info.isTail)
            throw RecordingFormatError(
                "end-checkpoint presence disagrees with the tail flag");
        seg.start.offset = file_offset + off;
        if (info.hasStartCheckpoint
            && crc32(bytes + off,
                     static_cast<std::size_t>(seg.start.compBytes))
                   != seg.start.crc)
            throw RecordingFormatError("start checkpoint CRC mismatch");
        off += seg.start.compBytes;
        seg.end.offset = file_offset + off;
        if (info.hasEndCheckpoint)
            seg.endCheckpoint =
                decodeCheckpoint(bytes + off, seg.end, info.endGcc,
                                 num_procs, label, "end checkpoint");
        info.payloadOffset = seg.end.offset + seg.end.compBytes;
        return seg;
    });
}

std::string
chainBreak(const ParsedSegment &prev, const ParsedSegment &cur)
{
    if (prev.info.segId + 1 != cur.info.segId)
        return "segment ids are not consecutive";
    if (prev.info.isTail)
        return "a segment follows the tail";
    if (prev.info.endGcc != cur.info.startGcc)
        return "GCC intervals do not chain";
    if (cur.info.hasStartCheckpoint
        && (cur.start.rawBytes != prev.end.rawBytes
            || cur.start.compBytes != prev.end.compBytes
            || cur.start.crc != prev.end.crc))
        return "start checkpoint differs from the predecessor's end";
    return "";
}

SystemCheckpoint
decodeStartCheckpoint(const std::uint8_t *comp, const ParsedSegment &seg,
                      unsigned num_procs, std::size_t label)
{
    return inSegment(label, [&] {
        return decodeCheckpoint(comp, seg.start, seg.info.startGcc,
                                num_procs, label, "start checkpoint");
    });
}

namespace
{

/** Inflated payload of segment i (an ArchiveError on failure). */
using PayloadFn = std::function<std::vector<std::uint8_t>(std::size_t)>;

/**
 * Reject an interval request (@p from, @p to) over @p count
 * checkpoints with CheckpointOutOfRangeError; @p to may be kToEnd.
 */
void
checkInterval(std::size_t from, std::size_t to, std::size_t count)
{
    if (from >= count)
        throw CheckpointOutOfRangeError(
            from, count,
            "interval start checkpoint " + std::to_string(from) + " of "
                + std::to_string(count));
    if (to != SegmentArchiveReader::kToEnd
        && (to <= from || to >= count))
        throw CheckpointOutOfRangeError(
            to, count,
            "interval [" + std::to_string(from) + ", "
                + std::to_string(to)
                + ") is not a valid checkpoint pair");
}

/**
 * Parse one segment, attributing parse errors to it as a typed
 * ArchiveError naming segment @p index.
 */
SegmentSlice
decodeSegment(const std::vector<std::uint8_t> &raw, unsigned num_procs,
              std::size_t index)
{
    try {
        return parseSegmentPayload(raw, num_procs);
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, index, e.what());
    }
}

Recording
skeletonRecording(const RunInfo &run)
{
    Recording rec;
    rec.machine = run.machine;
    rec.mode = run.mode;
    rec.appName = run.app;
    rec.workloadSeed = run.seed;
    rec.iterationsPercent = run.iterations;
    rec.pi = PiLog(run.machine.numProcs);
    rec.cs.assign(run.machine.numProcs, CsLog(run.mode));
    rec.interrupts = InterruptLog(run.machine.numProcs);
    rec.io = IoLog(run.machine.numProcs);
    return rec;
}

/**
 * Append one decoded segment slice onto @p rec's logs.
 *
 * @param use_masks keep the slice's shard masks (whole-container
 *        reads). Interval reads pass false: their synthetic PI prefix
 *        is maskless, so the reconstructed interval degrades to a
 *        total-order PI log — interval replay is always total-order
 *        anyway.
 */
void
appendSlice(Recording &rec, const SegmentSlice &slice,
            std::vector<std::uint64_t> &io_base, std::size_t segment,
            bool use_masks)
{
    const unsigned n = rec.machine.numProcs;
    const bool masked = use_masks && slice.piHasMasks;
    if (masked && !rec.pi.hasMasks()) {
        if (rec.pi.entryCount() != 0)
            throw ArchiveError(ArchiveSection::kSegment, segment,
                               "PI mask section appears mid-stream");
        if (rec.machine.bulk.numArbiters < 2)
            throw ArchiveError(ArchiveSection::kSegment, segment,
                               "PI masks present with a single arbiter");
        rec.pi.enableMasks(rec.machine.bulk.numArbiters);
    }
    if (use_masks && !slice.piHasMasks && rec.pi.hasMasks()
        && !slice.pi.empty())
        throw ArchiveError(ArchiveSection::kSegment, segment,
                           "PI mask section ends mid-stream");
    for (std::size_t i = 0; i < slice.pi.size(); ++i) {
        const ProcId p = slice.pi[i];
        if (p >= n && p != kDmaProcId)
            throw ArchiveError(ArchiveSection::kSegment, segment,
                               "PI entry names proc "
                                   + std::to_string(p));
        if (masked) {
            const std::uint64_t mask = slice.piMasks[i];
            const unsigned shards = rec.machine.bulk.numArbiters;
            if (mask == 0
                || (shards < 64 && mask >= (1ull << shards)))
                throw ArchiveError(ArchiveSection::kSegment, segment,
                                   "PI shard mask out of range");
            rec.pi.appendWithMask(p, mask);
        } else {
            rec.pi.append(p);
        }
    }
    for (const Stratum &s : slice.strata)
        rec.strata.push_back(s);
    for (ProcId p = 0; p < n; ++p) {
        for (const CsEntry &e : slice.cs[p]) {
            if (rec.mode.mode == ExecMode::kOrderAndSize)
                rec.cs[p].appendCommittedSize(e.seq, e.size, e.maxSize);
            else
                rec.cs[p].appendTruncation(e.seq, e.size);
        }
        for (const InterruptRecord &e : slice.interrupts[p])
            rec.interrupts.append(p, e);
        for (std::size_t k = 0; k < slice.io[p].size(); ++k)
            rec.io.append(p, io_base[p] + k, slice.io[p][k]);
        io_base[p] += slice.io[p].size();
    }
    for (const auto &[xfer, slot] : slice.dma)
        rec.dma.append(xfer, slot);
    for (const CommitRecord &c : slice.commits)
        rec.fingerprint.commits.push_back(c);
}

/**
 * Append the synthetic pre-interval prefix implied by @p start onto a
 * fresh skeleton: filler PI entries / capped strata, empty DMA
 * transfers and zeroed fingerprint commits sized so the replay skip
 * logic consumes exactly the recording prefix the interval omits.
 */
void
appendSyntheticPrefix(Recording &rec, const SystemCheckpoint &start)
{
    const unsigned n = rec.machine.numProcs;
    std::uint64_t chunk0 = 0;
    for (const ChunkSeq c : start.committedChunks)
        chunk0 += c;
    const std::size_t dma0 = start.dmaConsumed;

    if (rec.stratified()) {
        for (std::size_t i = 0; i < dma0; ++i) {
            Stratum s;
            s.isDma = true;
            s.counts.assign(n, 0);
            rec.strata.push_back(std::move(s));
        }
        std::vector<std::uint64_t> need(start.committedChunks.begin(),
                                        start.committedChunks.end());
        const std::uint64_t cap = std::max<std::uint64_t>(
            1, rec.mode.stratifyChunksPerProc);
        bool any = true;
        while (any) {
            any = false;
            Stratum s;
            s.counts.assign(n, 0);
            for (unsigned p = 0; p < n; ++p) {
                const std::uint64_t take =
                    std::min<std::uint64_t>(need[p], cap);
                s.counts[p] = static_cast<std::uint8_t>(take);
                need[p] -= take;
                any = any || take;
            }
            if (any)
                rec.strata.push_back(std::move(s));
        }
    } else if (rec.mode.mode != ExecMode::kPicoLog) {
        for (std::size_t i = 0; i < dma0; ++i)
            rec.pi.append(kDmaProcId);
        for (std::uint64_t i = 0; i < start.gcc - dma0; ++i)
            rec.pi.append(0);
    }
    for (std::size_t i = 0; i < dma0; ++i)
        rec.dma.append(DmaTransfer{}, 0);
    rec.fingerprint.commits.assign(static_cast<std::size_t>(chunk0),
                                   CommitRecord{});
}

/**
 * Decode segments first..first+count-1 in parallel (CRC + decompress
 * + parse), then append them in segment order. Each segment's error
 * (or slice) lands in its own slot and the append loop consumes the
 * slots in order, so the first error to surface is the lowest-index
 * one, at any width.
 */
void
assemble(Recording &rec, unsigned width, std::size_t first,
         std::size_t count, const PayloadFn &payload,
         std::vector<std::uint64_t> &io_base, bool use_masks)
{
    const unsigned n = rec.machine.numProcs;
    std::vector<SegmentSlice> slices(count);
    std::vector<std::exception_ptr> errors(count);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t k = 0; k < count; ++k)
        tasks.push_back([&slices, &errors, &payload, first, n, k] {
            try {
                slices[k] =
                    decodeSegment(payload(first + k), n, first + k);
            } catch (...) {
                errors[k] = std::current_exception();
            }
        });
    Executor::run(tasks, width);
    for (std::size_t k = 0; k < count; ++k) {
        if (errors[k])
            std::rethrow_exception(errors[k]);
        appendSlice(rec, slices[k], io_base, first + k, use_masks);
        slices[k] = SegmentSlice(); // free as we go
    }
}

void
applyFingerprint(const FinalStats &fin, Recording &rec)
{
    rec.fingerprint.perProcAcc = fin.perProcAcc;
    rec.fingerprint.perProcRetired = fin.perProcRetired;
    rec.fingerprint.finalMemHash = fin.finalMemHash;
}

Recording
assembleAll(const RunInfo &run, const FinalStats &fin, unsigned width,
            std::size_t count, const PayloadFn &payload,
            std::vector<SystemCheckpoint> checkpoints)
{
    Recording rec = skeletonRecording(run);
    std::vector<std::uint64_t> io_base(run.machine.numProcs, 0);
    assemble(rec, width, 0, count, payload, io_base, /*use_masks=*/true);
    rec.checkpoints = std::move(checkpoints);
    applyFingerprint(fin, rec);
    rec.stats.totalCycles = fin.engine[0];
    rec.stats.retiredInstrs = fin.engine[1];
    rec.stats.executedInstrs = fin.engine[2];
    rec.stats.committedChunks = fin.engine[3];
    rec.stats.squashes = fin.engine[4];
    rec.stats.overflowTruncations = fin.engine[5];
    rec.stats.collisionTruncations = fin.engine[6];
    rec.stats.hardTruncations = fin.engine[7];
    validateRecording(rec);
    return rec;
}

Recording
assembleInterval(const RunInfo &run, const FinalStats &fin,
                 unsigned width, const SystemCheckpoint &start,
                 const SystemCheckpoint *stop, std::size_t first,
                 std::size_t count, const PayloadFn &payload)
{
    Recording rec = skeletonRecording(run);
    appendSyntheticPrefix(rec, start);
    std::vector<std::uint64_t> io_base;
    for (const ThreadContext &ctx : start.contexts)
        io_base.push_back(ctx.ioLoadCount);
    assemble(rec, width, first, count, payload, io_base,
             /*use_masks=*/false);
    applyFingerprint(fin, rec);
    rec.checkpoints.push_back(start);
    if (stop)
        rec.checkpoints.push_back(*stop);
    validateRecording(rec);
    return rec;
}

} // namespace

} // namespace archive_detail

// ----- the shared reader ----------------------------------------------------

using namespace archive_detail;

void
SegmentArchiveReader::adopt(std::vector<ParsedSegment> &&records,
                            const SystemCheckpoint *first_start,
                            const FinalStats *closed)
{
    if (first_start) {
        checkpoints_.push_back(*first_start);
        ckpt_boundary_.push_back(0);
    }
    for (ParsedSegment &seg : records) {
        if (seg.info.hasEndCheckpoint) {
            checkpoints_.push_back(std::move(seg.endCheckpoint));
            ckpt_boundary_.push_back(segments_.size() + 1);
        }
        segments_.push_back(seg.info);
    }
    clean_ = closed != nullptr;
    if (closed) {
        final_ = *closed;
    } else {
        final_.perProcAcc.assign(run_.machine.numProcs, 0);
        final_.perProcRetired.assign(run_.machine.numProcs, 0);
    }
}

std::vector<std::uint64_t>
SegmentArchiveReader::checkpointGccs() const
{
    std::vector<std::uint64_t> gccs;
    gccs.reserve(checkpoints_.size());
    for (const SystemCheckpoint &c : checkpoints_)
        gccs.push_back(c.gcc);
    return gccs;
}

const SystemCheckpoint &
SegmentArchiveReader::checkpointAt(std::size_t index) const
{
    if (index >= checkpoints_.size())
        throw CheckpointOutOfRangeError(
            index, checkpoints_.size(),
            "checkpoint " + std::to_string(index) + " of "
                + std::to_string(checkpoints_.size()));
    return checkpoints_[index];
}

std::size_t
SegmentArchiveReader::newestCheckpointAtOrBefore(std::uint64_t cycle) const
{
    const auto it = std::upper_bound(
        checkpoints_.begin(), checkpoints_.end(), cycle,
        [](std::uint64_t c, const SystemCheckpoint &ckpt) {
            return c < ckpt.gcc;
        });
    if (it == checkpoints_.begin())
        throw CheckpointOutOfRangeError(
            0, checkpoints_.size(),
            "cycle " + std::to_string(cycle)
                + " predates the retained window"
                + (checkpoints_.empty()
                       ? std::string(" (no checkpoints retained)")
                       : " (oldest checkpoint at GCC "
                             + std::to_string(checkpoints_.front().gcc)
                             + ")"));
    return static_cast<std::size_t>(it - checkpoints_.begin()) - 1;
}

std::vector<std::uint8_t>
SegmentArchiveReader::payload(std::size_t pos) const
{
    const SegmentInfo &info = segments_[pos];
    std::vector<std::uint8_t> scratch;
    const std::uint8_t *comp =
        fetch(pos, info.payloadOffset, info.compBytes, scratch);
    return inflate(comp, info.compBytes, info.crc32, info.rawBytes,
                   ArchiveSection::kSegment, pos, "payload");
}

Recording
SegmentArchiveReader::readAll() const
{
    if (!clean_)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "not closed cleanly: readAll unavailable");
    if (segments_.front().segId != 0)
        throw CheckpointOutOfRangeError(
            0, checkpointCount(),
            "run start evicted: oldest retained segment is "
                + std::to_string(segments_.front().segId));
    return assembleAll(
        run_, final_, io_.ioThreads, segments_.size(),
        [this](std::size_t pos) { return payload(pos); }, checkpoints_);
}

Recording
SegmentArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    checkInterval(from, to, checkpointCount());
    if (to == kToEnd && !clean_)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "not closed cleanly: final stats are unavailable, bound "
            "the interval at a retained checkpoint");
    const std::size_t lo = ckpt_boundary_[from];
    const std::size_t hi =
        to == kToEnd ? segments_.size() : ckpt_boundary_[to];
    return assembleInterval(
        run_, final_, io_.ioThreads, checkpoints_[from],
        to == kToEnd ? nullptr : &checkpoints_[to], lo, hi - lo,
        [this](std::size_t pos) { return payload(pos); });
}

} // namespace delorean
