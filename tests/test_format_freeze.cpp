/**
 * @file
 * Format freeze for the stored containers. For one small fixed
 * recording per mode, the bytes writeArchive() emits and every file
 * writeRing() leaves in its directory are pinned by size and 64-bit
 * FNV-1a digest. A change to the writers that moves any stored byte —
 * segment cuts, payload layout, codec, footer, ring headers, index —
 * fails here even when it still round-trips, so a container format
 * change has to be made deliberately (new version, new digests). The
 * archive lines are pinned at `.dla` version 3.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "compress/lz77.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

namespace delorean
{
namespace
{

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%zu:%016llx", bytes.size(),
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
fileBytes(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out(std::ios::binary);
    out << in.rdbuf();
    return std::move(out).str();
}

/** The fixed recording the pinned bytes are stored from. */
Recording
fixture(const ModeConfig &mode, unsigned arbiters)
{
    MachineConfig machine;
    machine.numProcs = 4;
    machine.bulk.numArbiters = arbiters;
    const Workload w("fft", 4, 9, WorkloadScale::tiny());
    return Recorder(mode, machine).record(w, 1, true, {}, 20);
}

std::string
archiveBytes(const Recording &rec)
{
    std::ostringstream dla(std::ios::binary);
    writeArchive(rec, dla, ArchiveIoOptions{2, true});
    return std::move(dla).str();
}

/**
 * "<name> <size>:<fnv1a64>" per line: the archive first, then every
 * ring file in name order.
 */
std::string
manifest(const std::string &label, const ModeConfig &mode,
         unsigned arbiters)
{
    const Recording rec = fixture(mode, arbiters);
    std::string lines = "archive " + digest(archiveBytes(rec)) + "\n";

    // Once with nothing evicted (every segment shape, segment 0
    // included) and once with a budget that evicts about half.
    for (const std::uint64_t budget : {4ull << 20, 400ull << 10}) {
        const std::string tag = budget > (1u << 20) ? "full/" : "evict/";
        const std::filesystem::path dir =
            testing::TempDir() + "freeze_ring_" + label;
        std::filesystem::remove_all(dir);
        RingOptions opts;
        opts.budgetBytes = budget;
        opts.checkpointPeriod = 20;
        opts.io.ioThreads = 2;
        writeRing(rec, dir.string(), opts);
        std::map<std::string, std::string> files;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir))
            files[entry.path().filename().string()] =
                digest(fileBytes(entry.path()));
        for (const auto &[name, d] : files)
            lines += tag + name + " " + d + "\n";
        std::filesystem::remove_all(dir);
    }
    return lines;
}

/**
 * saveRecording() bytes of one fft recording under BulkSC Bloom
 * signatures (exactDisambiguation off): conflicts are found by
 * Signature::intersects, and stratified recording folds commits
 * through Signature::unionWith, so a change to either sweep that
 * moves a squash or a stratum boundary moves these bytes.
 */
std::string
bloomRecordingDigest(const ModeConfig &mode)
{
    MachineConfig machine;
    machine.numProcs = 4;
    machine.bulk.exactDisambiguation = false;
    const Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec = Recorder(mode, machine).record(w, 1);
    // The digest only guards the sweeps if they squashed something.
    EXPECT_GT(rec.stats.squashes, 0u);
    EXPECT_GT(rec.stats.sigSummaryHits, 0u);
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return digest(std::move(out).str());
}

ModeConfig
stratified()
{
    ModeConfig m = ModeConfig::orderOnly();
    m.stratifyChunksPerProc = 4;
    return m;
}

TEST(FormatFreeze, OrderAndSize)
{
    EXPECT_EQ(manifest("oas", ModeConfig::orderAndSize(), 1),
              "archive 396371:cc5910ee60b6c2a8\n"
              "full/ring.index 328:889dd22811ec13c2\n"
              "full/ring.meta 243:2dba8348cbbdc736\n"
              "full/seg-000000000000 28019:e4dbaa16f8c6ccd7\n"
              "full/seg-000000000001 69741:63e47a2091b0a3c7\n"
              "full/seg-000000000002 99107:00cf33ce2627b166\n"
              "full/seg-000000000003 117045:58d02ffe83835818\n"
              "full/seg-000000000004 125132:7d8400e6362ca0cb\n"
              "full/seg-000000000005 131604:6def60d4eb970b0c\n"
              "full/seg-000000000006 141595:2ba1ff4e1a7cd43d\n"
              "full/seg-000000000007 75386:762f512b6d8b9589\n"
              "evict/ring.index 248:51873da7fddcbf42\n"
              "evict/ring.meta 243:0fdef9d6fc46d457\n"
              "evict/seg-000000000005 131604:6def60d4eb970b0c\n"
              "evict/seg-000000000006 141595:2ba1ff4e1a7cd43d\n"
              "evict/seg-000000000007 75386:762f512b6d8b9589\n");
}

TEST(FormatFreeze, OrderOnly)
{
    EXPECT_EQ(manifest("oo", ModeConfig::orderOnly(), 1),
              "archive 340843:febdaba68fcd75f9\n"
              "full/ring.index 312:89295c239de350c5\n"
              "full/ring.meta 243:fa753bbcd451bf4c\n"
              "full/seg-000000000000 30333:1c335028f01a8003\n"
              "full/seg-000000000001 78797:3cff97f1d681010b\n"
              "full/seg-000000000002 106875:f3c2b055860073a7\n"
              "full/seg-000000000003 122275:e373542bbe69b3c1\n"
              "full/seg-000000000004 129970:f6a783d061579abe\n"
              "full/seg-000000000005 137573:6e338119cdef38e2\n"
              "full/seg-000000000006 71777:a8c62e42a324c95e\n"
              "evict/ring.index 248:517f07e7f8ea614e\n"
              "evict/ring.meta 243:f9d68765044e4c25\n"
              "evict/seg-000000000004 129970:f6a783d061579abe\n"
              "evict/seg-000000000005 137573:6e338119cdef38e2\n"
              "evict/seg-000000000006 71777:a8c62e42a324c95e\n");
}

TEST(FormatFreeze, OrderOnlyShardedArbiter)
{
    EXPECT_EQ(manifest("oo4", ModeConfig::orderOnly(), 4),
              "archive 340943:db6f2f6d0ca59070\n"
              "full/ring.index 312:3cfb01014360a9bf\n"
              "full/ring.meta 243:f3a3f43ced2ea34d\n"
              "full/seg-000000000000 30342:f9da5a1ee844ff46\n"
              "full/seg-000000000001 78801:5df49f6140703abc\n"
              "full/seg-000000000002 106892:d52529ab79b4b44c\n"
              "full/seg-000000000003 122299:8ccbf9de60ca7138\n"
              "full/seg-000000000004 129988:1a566f6b89b1c567\n"
              "full/seg-000000000005 137594:b8fc8581aba92354\n"
              "full/seg-000000000006 71783:439b0e66d17ee39a\n"
              "evict/ring.index 248:3d57216e11afdf93\n"
              "evict/ring.meta 243:a28e7d3886db7244\n"
              "evict/seg-000000000004 129988:1a566f6b89b1c567\n"
              "evict/seg-000000000005 137594:b8fc8581aba92354\n"
              "evict/seg-000000000006 71783:439b0e66d17ee39a\n");
}

TEST(FormatFreeze, OrderOnlyStratified)
{
    EXPECT_EQ(manifest("strat", stratified(), 1),
              "archive 340857:81fa6d794bcfe464\n"
              "full/ring.index 312:ffba3663f02341c5\n"
              "full/ring.meta 243:57be17cf16873d23\n"
              "full/seg-000000000000 30346:ba8bb181c379c66a\n"
              "full/seg-000000000001 78784:7b566ada1012bacd\n"
              "full/seg-000000000002 106877:9073d23a6ffc21e7\n"
              "full/seg-000000000003 122276:c37fccf2062110d4\n"
              "full/seg-000000000004 129979:13e03cb809bc8f12\n"
              "full/seg-000000000005 137583:28356d3b365f3d04\n"
              "full/seg-000000000006 71769:a177083f2baecca1\n"
              "evict/ring.index 248:376285fc3571e895\n"
              "evict/ring.meta 243:1bc88f4c2bc67916\n"
              "evict/seg-000000000004 129979:13e03cb809bc8f12\n"
              "evict/seg-000000000005 137583:28356d3b365f3d04\n"
              "evict/seg-000000000006 71769:a177083f2baecca1\n");
}

TEST(FormatFreeze, PicoLog)
{
    EXPECT_EQ(manifest("pico", ModeConfig::picoLog(), 1),
              "archive 401293:4861d45c479d9046\n"
              "full/ring.index 344:75e99555aae01d3c\n"
              "full/ring.meta 243:44225f4b477855cc\n"
              "full/seg-000000000000 19929:a74cce9f2254fc9c\n"
              "full/seg-000000000001 50535:621796ff2e2ae482\n"
              "full/seg-000000000002 68604:dc95b3def32262b6\n"
              "full/seg-000000000003 86354:10db5d47909e04a5\n"
              "full/seg-000000000004 105350:6cf8ff7a411dfe66\n"
              "full/seg-000000000005 119584:f1dfcdfad33af51c\n"
              "full/seg-000000000006 129155:864a8297454400c1\n"
              "full/seg-000000000007 142301:72bbfb9f078d9bb0\n"
              "full/seg-000000000008 76065:a3fe76acf6d96dfd\n"
              "evict/ring.index 248:39b81537f56963d2\n"
              "evict/ring.meta 243:fbba2db988dcc235\n"
              "evict/seg-000000000006 129155:864a8297454400c1\n"
              "evict/seg-000000000007 142301:72bbfb9f078d9bb0\n"
              "evict/seg-000000000008 76065:a3fe76acf6d96dfd\n");
}

std::uint64_t
u64At(const std::string &bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
    return v;
}

/** Decompressed header blob of the segment record in @p record. */
std::string
recordHeader(const std::string &record)
{
    const std::vector<std::uint8_t> raw = Lz77().decompress(
        reinterpret_cast<const std::uint8_t *>(record.data()) + 48,
        static_cast<std::size_t>(u64At(record, 32)));
    return std::string(raw.begin(), raw.end());
}

/**
 * One on-disk unit: every segment record of a `.dla` is the unbounded
 * ring's seg-<id> file for the same recording, except that records
 * after segment 0 omit the start-checkpoint image — which the ring
 * stores as a byte copy of the previous segment's end image. Segment
 * 0 (which has no start image) is byte-identical; for the others the
 * preamble words, the end image and the payload are byte-identical,
 * and the headers differ only in the start image reference.
 */
TEST(FormatFreeze, ArchiveSegmentsAreRingRecords)
{
    for (const auto &[label, mode] :
         {std::pair{"oas", ModeConfig::orderAndSize()},
          std::pair{"oo", ModeConfig::orderOnly()},
          std::pair{"strat", stratified()},
          std::pair{"pico", ModeConfig::picoLog()}}) {
        const Recording rec = fixture(mode, 1);
        const std::string dla = archiveBytes(rec);
        const ArchiveReader archive = ArchiveReader::fromBytes(
            std::vector<std::uint8_t>(dla.begin(), dla.end()));
        const std::filesystem::path dir =
            testing::TempDir() + "freeze_unit_" + label;
        std::filesystem::remove_all(dir);
        RingOptions opts;
        opts.budgetBytes = ~0ull;
        opts.checkpointPeriod = 20;
        writeRing(rec, dir.string(), opts);
        const RingArchiveReader ring = RingArchiveReader::open(dir.string());
        ASSERT_EQ(ring.segments().size(), archive.segments().size())
            << label;

        std::string prev_file;
        for (std::size_t k = 0; k < archive.segments().size(); ++k) {
            const SegmentInfo &in_dla = archive.segments()[k];
            const SegmentInfo &in_ring = ring.segments()[k];
            const std::string record = dla.substr(
                static_cast<std::size_t>(in_dla.recordOffset),
                static_cast<std::size_t>(in_dla.recordBytes));
            char name[32];
            std::snprintf(name, sizeof name, "seg-%012zu", k);
            const std::string file = fileBytes(dir / name);
            EXPECT_FALSE(in_dla.hasStartCheckpoint) << label << " " << k;
            if (k == 0) {
                EXPECT_EQ(record, file) << label;
                prev_file = file;
                continue;
            }
            ASSERT_TRUE(in_ring.hasStartCheckpoint) << label << " " << k;
            // Magic, version and segment id.
            EXPECT_EQ(record.substr(0, 24), file.substr(0, 24))
                << label << " " << k;
            // The ring's header names the start image (a present flag,
            // then its raw size, stored size and CRC); the archive's
            // says it is absent. Nothing else differs.
            const std::string ring_header = recordHeader(file);
            const std::string want = ring_header.substr(0, 24)
                                     + std::string(8, '\0')
                                     + ring_header.substr(56);
            EXPECT_EQ(recordHeader(record), want) << label << " " << k;
            // After the header: end image and payload, byte-identical.
            const std::size_t dla_body =
                48 + static_cast<std::size_t>(u64At(record, 32));
            const std::size_t ring_start =
                48 + static_cast<std::size_t>(u64At(file, 32));
            const std::size_t start_bytes =
                static_cast<std::size_t>(u64At(ring_header, 40));
            EXPECT_EQ(record.substr(dla_body),
                      file.substr(ring_start + start_bytes))
                << label << " " << k;
            // The start image the archive omits is the previous
            // record's end image, byte for byte.
            const std::size_t prev_payload = static_cast<std::size_t>(
                ring.segments()[k - 1].payloadOffset);
            EXPECT_EQ(file.substr(ring_start, start_bytes),
                      prev_file.substr(prev_payload - start_bytes,
                                       start_bytes))
                << label << " " << k;
            EXPECT_EQ(in_dla.compBytes, in_ring.compBytes);
            EXPECT_EQ(in_dla.crc32, in_ring.crc32);
            prev_file = file;
        }
        std::filesystem::remove_all(dir);
    }
}

TEST(FormatFreeze, BloomOrderOnlyRecording)
{
    EXPECT_EQ(bloomRecordingDigest(ModeConfig::orderOnly()),
              "6635:506a2ba578f1629b");
}

TEST(FormatFreeze, BloomStratifiedRecording)
{
    EXPECT_EQ(bloomRecordingDigest(stratified()),
              "10659:96a4db8bfc7b2a45");
}

TEST(FormatFreeze, BloomOrderAndSizeRecording)
{
    EXPECT_EQ(bloomRecordingDigest(ModeConfig::orderAndSize()),
              "10803:f3bd0455cdd35d50");
}

} // namespace
} // namespace delorean
