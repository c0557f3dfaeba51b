#include "store/archive.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "core/stratifier.hpp"
#include "sim/campaign.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::getCheckpoint;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putU64;

namespace
{

constexpr std::uint64_t kArchiveMagic = 0x766372416F4C6544ull;  // "DeLoArcv"
constexpr std::uint64_t kSegmentMagic = 0x2E6765536F4C6544ull;  // "DeLoSeg."
constexpr std::uint64_t kArchiveEndMagic = 0x5A6372416F4C6544ull; // "DeLoArcZ"
// v2: machine footer carries bulk.numArbiters (12 u64s) and PI slices
// carry an optional shard-mask section for partial-order recordings.
constexpr std::uint64_t kArchiveVersion = 2;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kSegmentHeaderBytes = 40;
constexpr std::size_t kTrailerBytes = 40;
constexpr std::uint64_t kMaxSegments = 1u << 20;

} // namespace

using namespace archive_detail;

// ----- options --------------------------------------------------------------

unsigned
defaultArchiveIoThreads()
{
    return campaignJobs();
}

unsigned
ArchiveIoOptions::resolvedIoThreads() const
{
    return ioThreads ? ioThreads : defaultArchiveIoThreads();
}

// ----- errors ---------------------------------------------------------------

const char *
archiveSectionName(ArchiveSection section)
{
    switch (section) {
    case ArchiveSection::kFileHeader:
        return "file header";
    case ArchiveSection::kSegment:
        return "segment";
    case ArchiveSection::kFooter:
        return "footer";
    case ArchiveSection::kTrailer:
        return "trailer";
    case ArchiveSection::kCheckpointIndex:
        return "checkpoint index";
    }
    return "unknown";
}

namespace
{

std::string
archiveErrorMessage(ArchiveSection section, std::size_t segment,
                    const std::string &what)
{
    std::string msg = "archive ";
    msg += archiveSectionName(section);
    if (section == ArchiveSection::kSegment
        && segment != ArchiveError::kNoSegment)
        msg += " " + std::to_string(segment);
    msg += ": " + what;
    return msg;
}

} // namespace

ArchiveError::ArchiveError(ArchiveSection section, std::size_t segment,
                           const std::string &what)
    : RecordingFormatError(archiveErrorMessage(section, segment, what)),
      section_(section), segment_(segment)
{
}

CheckpointOutOfRangeError::CheckpointOutOfRangeError(
    std::size_t index, std::size_t available, const std::string &what)
    : ArchiveError(ArchiveSection::kCheckpointIndex,
                   ArchiveError::kNoSegment, what),
      index_(index), available_(available)
{
}

// ----- writer ---------------------------------------------------------------

namespace
{

/**
 * The `.dla` sink: one stream, segments back to back as the flusher
 * commits them, then the footer index and trailer at close. On top of
 * the shared pipeline it keeps scratch logs that replay the recorder's
 * variable-width log packing, so the footer records exactly where a
 * hardware recorder's log write pointers stood at each boundary.
 */
class DlaSink final : public SegmentSink
{
  public:
    explicit DlaSink(std::ostream &out) : out_(&out) {}

    void
    begin(const Recording &rec) override
    {
        n_ = rec.machine.numProcs;
        scratch_pi_ = PiLog(n_);
        if (rec.pi.hasMasks())
            scratch_pi_.enableMasks(rec.pi.maskBits());
        scratch_cs_.assign(n_, CsLog(rec.mode));
        strata_counter_bits_ =
            rec.stratified()
                ? Stratifier(n_, rec.mode.stratifyChunksPerProc)
                      .counterBits()
                : 0;
        put(kArchiveMagic);
        put(kArchiveVersion);
    }

    /** Advance the scratch logs over (lo, hi]; note the bit positions. */
    void
    annotate(const Recording &rec, const Boundary &lo, const Boundary &hi,
             StagedSegment &seg) override
    {
        if (!rec.stratified() && rec.mode.mode != ExecMode::kPicoLog) {
            for (std::uint64_t g = lo.gcc;
                 g < std::min<std::uint64_t>(hi.gcc, rec.pi.entryCount());
                 ++g) {
                if (rec.pi.hasMasks())
                    scratch_pi_.appendWithMask(rec.pi.entryAt(g),
                                               rec.pi.maskAt(g));
                else
                    scratch_pi_.append(rec.pi.entryAt(g));
            }
        }
        for (ProcId p = 0; p < n_; ++p)
            for (const CsEntry &e : rec.cs[p].entries())
                if (e.seq >= lo.committed[p] && e.seq < hi.committed[p]) {
                    if (rec.mode.mode == ExecMode::kOrderAndSize)
                        scratch_cs_[p].appendCommittedSize(e.seq, e.size,
                                                           e.maxSize);
                    else
                        scratch_cs_[p].appendTruncation(e.seq, e.size);
                }
        seg.info.piBitsEnd = scratch_pi_.sizeBits();
        seg.info.strataBitsEnd =
            static_cast<std::uint64_t>(hi.strataIdx) * n_
            * strata_counter_bits_;
        for (ProcId p = 0; p < n_; ++p)
            seg.info.csBitsEnd.push_back(scratch_cs_[p].sizeBits());
    }

    void
    commit(std::vector<StagedSegment> &batch) override
    {
        for (StagedSegment &seg : batch) {
            seg.info.fileOffset = offset_;
            put(kSegmentMagic);
            put(seg.index);
            put(seg.info.rawBytes);
            put(seg.info.compBytes);
            put(seg.info.crc32);
            putBytes(seg.payload.comp);
            std::vector<std::uint8_t>().swap(seg.payload.comp);
            segments_.push_back(std::move(seg.info));
        }
        check();
    }

    /** Footer (metadata + segment index) and trailer; then flush. */
    void
    finish(const Recording &rec)
    {
        std::ostringstream footer(std::ios::binary);
        putRunInfo(footer, rec);
        putFinalStats(footer, rec);
        putU64(footer, segments_.size());
        for (const ArchiveSegmentInfo &info : segments_) {
            putU64(footer, info.endGcc);
            putU64(footer, info.fileOffset);
            putU64(footer, info.rawBytes);
            putU64(footer, info.compBytes);
            putU64(footer, info.crc32);
            putU64(footer, info.piBitsEnd);
            putU64(footer, info.strataBitsEnd);
            putU64(footer, info.csBitsEnd.size());
            for (const std::uint64_t bits : info.csBitsEnd)
                putU64(footer, bits);
            putU64(footer, info.hasCheckpoint ? 1 : 0);
            if (info.hasCheckpoint)
                putCheckpoint(footer, info.checkpoint);
        }
        const EncodedBlob blob = encodeBlob(std::move(footer).str());
        const std::uint64_t footer_offset = offset_;
        putBytes(blob.comp);
        put(footer_offset);
        put(blob.comp.size());
        put(blob.rawBytes);
        put(blob.crc);
        put(kArchiveEndMagic);
        out_->flush();
        check();
    }

  private:
    void
    putBytes(const std::vector<std::uint8_t> &bytes)
    {
        out_->write(reinterpret_cast<const char *>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
        offset_ += bytes.size();
    }

    void
    put(std::uint64_t v)
    {
        putU64(*out_, v);
        offset_ += 8;
    }

    void
    check() const
    {
        if (!*out_)
            throw ArchiveWriteError("failed to write archive");
    }

    std::ostream *out_;
    std::uint64_t offset_ = 0;
    std::vector<ArchiveSegmentInfo> segments_; ///< committed, in order
    unsigned n_ = 0;
    unsigned strata_counter_bits_ = 0;
    PiLog scratch_pi_{1};
    std::vector<CsLog> scratch_cs_;
};

} // namespace

struct StreamingArchiveWriter::Impl
{
    DlaSink sink;
    SegmentPipeline pipeline;

    Impl(std::ostream &out, const ArchiveIoOptions &io)
        : sink(out), pipeline(sink, io, "StreamingArchiveWriter")
    {
    }
};

StreamingArchiveWriter::StreamingArchiveWriter(
    std::ostream &out, const ArchiveIoOptions &io)
    : impl_(std::make_unique<Impl>(out, io))
{
}

StreamingArchiveWriter::~StreamingArchiveWriter() = default;

void
StreamingArchiveWriter::onCheckpoint(const Recording &rec)
{
    impl_->pipeline.onCheckpoint(rec);
}

void
StreamingArchiveWriter::close(const Recording &rec)
{
    impl_->pipeline.finish(rec);
    impl_->sink.finish(rec);
}

bool
StreamingArchiveWriter::closed() const
{
    return impl_->pipeline.closed();
}

std::size_t
StreamingArchiveWriter::segmentCount() const
{
    return impl_->pipeline.segmentCount();
}

void
writeArchive(const Recording &rec, std::ostream &out,
             const ArchiveIoOptions &io)
{
    StreamingArchiveWriter(out, io).close(rec);
}

void
writeArchiveFile(const Recording &rec, const std::string &path,
                 const ArchiveIoOptions &io)
{
    writeFileChecked(path, [&](std::ostream &out) {
        writeArchive(rec, out, io);
    });
}

// ----- reader ---------------------------------------------------------------

bool
ArchiveReader::looksLikeArchive(const std::uint8_t *bytes,
                                std::size_t size)
{
    return size >= 8 && readU64At(bytes, 0) == kArchiveMagic;
}

bool
ArchiveReader::fileLooksLikeArchive(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint8_t head[8];
    in.read(reinterpret_cast<char *>(head), 8);
    return in && looksLikeArchive(head, 8);
}

ArchiveReader::ArchiveReader(ArchiveReader &&) noexcept = default;
ArchiveReader &
ArchiveReader::operator=(ArchiveReader &&) noexcept = default;
ArchiveReader::~ArchiveReader() = default;

ArchiveReader
ArchiveReader::fromBytes(std::vector<std::uint8_t> bytes,
                         const ArchiveIoOptions &io)
{
    ArchiveReader reader;
    reader.owned_ = std::move(bytes);
    reader.data_ = reader.owned_.data();
    reader.size_ = reader.owned_.size();
    reader.io_ = io;
    reader.parse();
    return reader;
}

ArchiveReader
ArchiveReader::fromFile(const std::string &path,
                        const ArchiveIoOptions &io)
{
    if (io.mmapReads) {
        ArchiveReader reader;
        if (reader.map_.open(path)) {
            reader.data_ = reader.map_.data();
            reader.size_ = reader.map_.size();
            reader.io_ = io;
            reader.parse();
            return reader;
        }
        // Fall through to the buffered path: mapping is best-effort
        // and both paths parse and fail identically.
    }
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, bytes))
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment, "cannot open " + path);
    return fromBytes(std::move(bytes), io);
}

WorkerPool &
ArchiveReader::ioPool() const
{
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(io_.resolvedIoThreads());
    return *pool_;
}

void
ArchiveReader::parse()
{
    if (size_ < kHeaderBytes
        || readU64At(data_, 0) != kArchiveMagic)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "not a DeLorean archive");
    if (readU64At(data_, 8) != kArchiveVersion)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "unsupported archive version "
                               + std::to_string(readU64At(data_, 8)));
    if (size_ < kHeaderBytes + kTrailerBytes)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "file too small for a trailer");

    const std::size_t trailer = size_ - kTrailerBytes;
    if (readU64At(data_, trailer + 32) != kArchiveEndMagic)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "end magic missing (truncated archive?)");
    const std::uint64_t footer_offset = readU64At(data_, trailer);
    const std::uint64_t footer_comp = readU64At(data_, trailer + 8);
    if (footer_offset < kHeaderBytes || footer_comp > size_
        || footer_offset + footer_comp > trailer)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "footer location out of bounds");
    const std::vector<std::uint8_t> raw =
        inflate(data_ + footer_offset, footer_comp,
                readU64At(data_, trailer + 24),
                readU64At(data_, trailer + 16), ArchiveSection::kFooter,
                ArchiveError::kNoSegment, "footer");

    try {
        std::istringstream in(
            std::string(reinterpret_cast<const char *>(raw.data()),
                        raw.size()),
            std::ios::binary);
        run_ = getRunInfo(in);
        final_ = getFinalStats(in, run_.machine.numProcs);
        const std::uint64_t seg_count = getU64(in);
        if (seg_count == 0 || seg_count > kMaxSegments)
            throw RecordingFormatError(
                "segment count " + std::to_string(seg_count)
                + " outside [1, " + std::to_string(kMaxSegments)
                + "]");
        for (std::uint64_t i = 0; i < seg_count; ++i) {
            ArchiveSegmentInfo info;
            info.endGcc = getU64(in);
            info.fileOffset = getU64(in);
            info.rawBytes = getU64(in);
            info.compBytes = getU64(in);
            info.crc32 = getU64(in);
            info.piBitsEnd = getU64(in);
            info.strataBitsEnd = getU64(in);
            const std::uint64_t cs_count = getU64(in);
            if (cs_count != run_.machine.numProcs)
                throw RecordingFormatError(
                    "segment " + std::to_string(i)
                    + " CS bit-position count does not match numProcs");
            for (std::uint64_t p = 0; p < cs_count; ++p)
                info.csBitsEnd.push_back(getU64(in));
            info.hasCheckpoint = getU64(in) != 0;
            if (info.hasCheckpoint) {
                info.checkpoint = getCheckpoint(in);
                if (info.checkpoint.contexts.size()
                    != run_.machine.numProcs)
                    throw RecordingFormatError(
                        "segment " + std::to_string(i)
                        + " checkpoint context count does not match "
                          "numProcs");
                if (info.checkpoint.gcc != info.endGcc)
                    throw RecordingFormatError(
                        "segment " + std::to_string(i)
                        + " checkpoint GCC disagrees with the index");
            }
            segments_.push_back(std::move(info));
        }
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment, e.what());
    }

    // Index sanity: offsets in bounds, boundaries ascending, only the
    // tail segment may lack a checkpoint.
    std::uint64_t prev_gcc = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const ArchiveSegmentInfo &info = segments_[i];
        if (info.fileOffset < kHeaderBytes
            || info.compBytes > size_
            || info.fileOffset + kSegmentHeaderBytes + info.compBytes
                   > footer_offset)
            throw ArchiveError(ArchiveSection::kFooter,
                               ArchiveError::kNoSegment,
                               "segment " + std::to_string(i)
                                   + " location out of bounds");
        if (i > 0 && info.endGcc < prev_gcc)
            throw ArchiveError(ArchiveSection::kFooter,
                               ArchiveError::kNoSegment,
                               "segment boundaries not ascending");
        prev_gcc = info.endGcc;
        const bool tail = i + 1 == segments_.size();
        if (tail == info.hasCheckpoint)
            throw ArchiveError(
                ArchiveSection::kFooter, ArchiveError::kNoSegment,
                tail ? "tail segment carries a checkpoint"
                     : "non-tail segment "
                           + std::to_string(i)
                           + " lacks a checkpoint");
    }
}

std::size_t
ArchiveReader::checkpointCount() const
{
    return segments_.size() - 1;
}

std::vector<std::uint64_t>
ArchiveReader::checkpointGccs() const
{
    std::vector<std::uint64_t> gccs;
    for (const ArchiveSegmentInfo &info : segments_)
        if (info.hasCheckpoint)
            gccs.push_back(info.checkpoint.gcc);
    return gccs;
}

const SystemCheckpoint &
ArchiveReader::checkpointAt(std::size_t index) const
{
    if (index >= checkpointCount())
        throw CheckpointOutOfRangeError(
            index, checkpointCount(),
            "checkpoint " + std::to_string(index) + " of "
                + std::to_string(checkpointCount()));
    return segments_[index].checkpoint;
}

std::vector<std::uint8_t>
ArchiveReader::segmentPayload(std::size_t index) const
{
    const ArchiveSegmentInfo &info = segments_[index];
    const std::size_t off =
        static_cast<std::size_t>(info.fileOffset);
    if (readU64At(data_, off) != kSegmentMagic)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment magic missing at offset "
                               + std::to_string(off));
    if (readU64At(data_, off + 8) != index)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment header id "
                               + std::to_string(readU64At(data_,
                                                          off + 8))
                               + " disagrees with the index");
    if (readU64At(data_, off + 16) != info.rawBytes
        || readU64At(data_, off + 24) != info.compBytes
        || readU64At(data_, off + 32) != info.crc32)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment header disagrees with the footer "
                           "index");
    return inflate(data_ + off + kSegmentHeaderBytes, info.compBytes,
                   info.crc32, info.rawBytes, ArchiveSection::kSegment,
                   index, "payload");
}

Recording
ArchiveReader::readAll() const
{
    std::vector<SystemCheckpoint> checkpoints;
    for (const ArchiveSegmentInfo &info : segments_)
        if (info.hasCheckpoint)
            checkpoints.push_back(info.checkpoint);
    return assembleAll(
        run_, final_, ioPool(), segments_.size(),
        [this](std::size_t i) { return segmentPayload(i); },
        std::move(checkpoints));
}

Recording
ArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    checkInterval(from, to, checkpointCount());
    const std::size_t last = to == kToEnd ? segments_.size() - 1 : to;
    return assembleInterval(
        run_, final_, ioPool(), segments_[from].checkpoint,
        to == kToEnd ? nullptr : &segments_[to].checkpoint, from + 1,
        last - from, [this](std::size_t i) { return segmentPayload(i); });
}

} // namespace delorean
