#include "store/archive.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "core/serialize_detail.hpp"
#include "sim/campaign.hpp"
#include "store/archive_detail.hpp"

namespace delorean
{

using serialize_detail::putU64;

namespace
{

constexpr std::uint64_t kArchiveMagic = 0x766372416F4C6544ull;  // "DeLoArcv"
constexpr std::uint64_t kArchiveEndMagic = 0x5A6372416F4C6544ull; // "DeLoArcZ"
// v3: the ring's segment records between a meta and an index record.
constexpr std::uint64_t kArchiveVersion = 3;
constexpr std::size_t kHeaderBytes = 16;
/// indexOffset, end magic.
constexpr std::size_t kTrailerBytes = 16;

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
    // A wrapped RecordingFormatError already leads with the lead the
    // base class adds again; keep one.
    static const std::string lead = RecordingFormatError("").what();
    msg += ": " + (what.rfind(lead, 0) == 0 ? what.substr(lead.size()) : what);
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
 * The `.dla` sink: one stream — the header and meta record, then each
 * segment record as the flusher commits it, then at close the clean
 * index record and the trailer. The records are the ring's, built by
 * the same writer, minus the start-checkpoint images: a `.dla` always
 * holds segment 0 onward, so segment i starts at segment i-1's end.
 */
class DlaSink final : public SegmentSink
{
  public:
    explicit DlaSink(std::ostream &out) : out_(&out) {}

    void
    begin(const Recording &rec) override
    {
        const std::string meta = metaBlob(rec, 0, 0, 0);
        putU64(*out_, kArchiveMagic);
        putU64(*out_, kArchiveVersion);
        putBlobRecord(*out_, kMetaMagic, meta);
        offset_ = kHeaderBytes + kBlobPreambleBytes + meta.size();
        check();
    }

    void
    commit(std::vector<StagedSegment> &batch) override
    {
        for (StagedSegment &seg : batch) {
            const std::uint64_t bytes =
                putSegmentRecord(*out_, seg, nullptr);
            offset_ += bytes;
            records_.push_back({seg.index, bytes});
            std::vector<std::uint8_t>().swap(seg.payload.comp);
        }
        check();
    }

    /** Clean index record and trailer; then flush. */
    void
    finish(const Recording &rec)
    {
        putBlobRecord(*out_, kIndexMagic, indexBlob(records_, &rec));
        putU64(*out_, offset_);
        putU64(*out_, kArchiveEndMagic);
        out_->flush();
        check();
    }

  private:
    void
    check() const
    {
        if (!*out_)
            throw ArchiveWriteError("failed to write archive");
    }

    std::ostream *out_;
    std::uint64_t offset_ = 0; ///< where the next record starts
    std::vector<RecordRef> records_; ///< committed, in order
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

const std::uint8_t *
ArchiveReader::fetch(std::size_t, std::uint64_t offset, std::uint64_t,
                     std::vector<std::uint8_t> &) const
{
    // parse() bounded every record inside the file.
    return data_ + offset;
}

void
ArchiveReader::parse()
{
    const auto fail = [](ArchiveSection section, const std::string &why) {
        return ArchiveError(section, ArchiveError::kNoSegment, why);
    };
    if (size_ < kHeaderBytes || readU64At(data_, 0) != kArchiveMagic)
        throw fail(ArchiveSection::kFileHeader, "not a DeLorean archive");
    if (readU64At(data_, 8) != kArchiveVersion)
        throw fail(ArchiveSection::kFileHeader,
                   "unsupported archive version "
                       + std::to_string(readU64At(data_, 8)));
    if (size_ < kHeaderBytes + kBlobPreambleBytes + kTrailerBytes)
        throw fail(ArchiveSection::kTrailer,
                   "file too small for a trailer");
    const std::size_t trailer = size_ - kTrailerBytes;
    if (readU64At(data_, trailer + 8) != kArchiveEndMagic)
        throw fail(ArchiveSection::kTrailer,
                   "end magic missing (truncated archive?)");
    const std::uint64_t index_off = readU64At(data_, trailer);
    if (index_off < kHeaderBytes + kBlobPreambleBytes
        || index_off > trailer)
        throw fail(ArchiveSection::kTrailer,
                   "index location out of bounds");

    // Meta record: its preamble says how long it is.
    const std::uint64_t meta_bytes =
        kBlobPreambleBytes + readU64At(data_, kHeaderBytes + 24);
    if (meta_bytes > index_off - kHeaderBytes)
        throw fail(ArchiveSection::kFileHeader, "meta record truncated");
    run_ = openMetaRecord(data_ + kHeaderBytes,
                          static_cast<std::size_t>(meta_bytes),
                          "meta record")
               .run;
    const unsigned n = run_.machine.numProcs;

    // Index record: from the trailer's pointer to the trailer.
    IndexInfo index;
    try {
        index = openIndexRecord(data_ + index_off,
                                static_cast<std::size_t>(trailer - index_off),
                                n);
    } catch (const RecordingFormatError &e) {
        throw fail(ArchiveSection::kFooter,
                   std::string("index record ") + e.what());
    }
    if (!index.clean)
        throw fail(ArchiveSection::kFooter,
                   "index record is not a clean close");
    if (index.live.empty())
        throw fail(ArchiveSection::kFooter, "index lists no segments");

    // Segment records, back to back from the meta record to the
    // index, in id order from 0, each chaining onto its predecessor.
    std::vector<ParsedSegment> records;
    std::uint64_t off = kHeaderBytes + meta_bytes;
    for (std::size_t k = 0; k < index.live.size(); ++k) {
        const RecordRef &ref = index.live[k];
        if (ref.bytes > index_off - off)
            throw fail(ArchiveSection::kFooter,
                       "segment " + std::to_string(k)
                           + " location out of bounds");
        ParsedSegment seg = parseSegmentRecord(
            data_ + off, static_cast<std::size_t>(ref.bytes), off, n, k);
        if (seg.info.segId != k || ref.segId != k)
            throw ArchiveError(ArchiveSection::kSegment, k,
                               "record names segment "
                                   + std::to_string(seg.info.segId)
                                   + ", the index "
                                   + std::to_string(ref.segId));
        if (k > 0) {
            const std::string gap = chainBreak(records.back(), seg);
            if (!gap.empty())
                throw ArchiveError(ArchiveSection::kSegment, k, gap);
        }
        off += ref.bytes;
        records.push_back(std::move(seg));
    }
    if (off != index_off)
        throw fail(ArchiveSection::kFooter,
                   "segment records do not reach the index record");
    if (!records.back().info.isTail)
        throw fail(ArchiveSection::kFooter,
                   "last segment is not the tail of a clean close");
    adopt(std::move(records), nullptr, &index.fin);
}

} // namespace delorean
