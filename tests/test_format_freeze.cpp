/**
 * @file
 * Format freeze for the stored containers. For one small fixed
 * recording per mode, the bytes writeArchive() emits and every file
 * writeRing() leaves in its directory are pinned by size and 64-bit
 * FNV-1a digest. A change to the writers that moves any stored byte —
 * segment cuts, payload layout, codec, footer, ring headers, index —
 * fails here even when it still round-trips, so a container format
 * change has to be made deliberately (new version, new digests).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

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

/**
 * "<name> <size>:<fnv1a64>" per line: the archive first, then every
 * ring file in name order.
 */
std::string
manifest(const std::string &label, const ModeConfig &mode,
         unsigned arbiters)
{
    MachineConfig machine;
    machine.numProcs = 4;
    machine.bulk.numArbiters = arbiters;
    const Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(mode, machine).record(w, 1, true, {}, 20);

    std::ostringstream dla(std::ios::binary);
    writeArchive(rec, dla, ArchiveIoOptions{2, true});
    std::string lines = "archive " + digest(std::move(dla).str()) + "\n";

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
              "archive 395796:87342b0fdc565d42\n"
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
              "archive 340160:bbbe8f9f6c33f062\n"
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
              "archive 340264:cd1b29a53bd8bc57\n"
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
              "archive 340176:332d2ead8ed4fe38\n"
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
              "archive 400444:301cc7868e63d6de\n"
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
