/**
 * @file
 * archive_io: data-plane throughput ledger -> BENCH_archive.json.
 *
 * Times the raw-speed pass over the archive (.dla) data plane:
 *
 *   - container write (segment build + hash-chain LZ77 + CRC) at
 *     ioThreads in {1, 2, 4, 8};
 *   - full readAll (decompress + CRC + reassembly) at the same
 *     thread counts, through both the mmap and the buffered file
 *     path;
 *   - seek-to-replay latency: readInterval from the last checkpoint
 *     off both read paths;
 *   - the serial baseline this PR replaced: lz77_reference (the old
 *     O(window * len) scalar matcher and bit-at-a-time decoder) over
 *     the same serialized bytes.
 *
 * The headline number is aggregate (compress + decompress) MB/s at
 * ioThreads = 4 versus the reference serial codec. On a single-core
 * host the pool adds nothing, so the gate is carried by the
 * single-thread codec wins (hash-chain search, word-wise BitReader,
 * block-copy literals/matches); on multi-core hosts the pool stacks
 * on top. Timings are best-of-kReps; stdout carries only
 * deterministic facts, wall-clock goes to the JSON and stderr. Exit
 * status reflects byte-identity across every thread count and read
 * path, never the speedup. Path override: DELOREAN_ARCHIVE_JSON.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compress/lz77.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "ledger.hpp"
#include "store/archive.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr std::uint64_t kCheckpointPeriod = 30;
constexpr int kReps = 3;
constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

using Clock = std::chrono::steady_clock;

/** Best-of-kReps wall time for @p fn, in seconds. */
template <typename Fn>
double
timeBest(Fn &&fn)
{
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best)
            best = s;
    }
    return best;
}

double
mbps(std::size_t bytes, double seconds)
{
    return seconds > 0
               ? static_cast<double>(bytes) / seconds / 1e6
               : 0.0;
}

std::string
archivedWith(const Recording &rec, unsigned io_threads)
{
    std::ostringstream out(std::ios::binary);
    writeArchive(rec, out, ArchiveIoOptions{io_threads, true});
    return std::move(out).str();
}

std::string
savedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

} // namespace

int
main()
{
    header("archive_io: data-plane throughput (write / read / seek)",
           "aggregate codec throughput at ioThreads=4 >= 2x the "
           "retired lz77_reference serial scan");

    const unsigned scale = benchScale(40);
    MachineConfig machine;
    machine.numProcs = 8;
    const Workload workload("ocean", machine.numProcs, kSeed,
                            WorkloadScale{scale});
    const Recording rec =
        Recorder(ModeConfig::orderAndSize(), machine)
            .record(workload, /*env_seed=*/1, true, {},
                    kCheckpointPeriod);

    const std::string raw = savedBytes(rec);
    const std::string container = archivedWith(rec, 1);
    const std::vector<std::uint8_t> container_bytes(container.begin(),
                                                    container.end());
    const ArchiveReader probe = ArchiveReader::fromBytes(container_bytes);
    std::printf("corpus: %s x%u procs, scale %u%% -> %zu raw bytes, "
                "%zu archived, %zu segments\n",
                "ocean", machine.numProcs, scale, raw.size(),
                container.size(), probe.segments().size());

    JsonLedger ledger("archive_io");
    ledger.host();
    ledger.open("config");
    ledger.field("app", "ocean");
    ledger.field("procs", machine.numProcs);
    ledger.field("scalePercent", scale);
    ledger.field("checkpointPeriod", kCheckpointPeriod);
    ledger.field("rawBytes", raw.size());
    ledger.field("archiveBytes", container.size());
    ledger.field("segments", probe.segments().size());
    ledger.field("mmapSupported", MappedFile::supported());
    ledger.close();

    // --- Serial baseline: the codec this PR retired, timed on the
    // same serialized bytes the writer feeds through LZ77.
    const std::vector<std::uint8_t> corpus(raw.begin(), raw.end());
    std::vector<std::uint8_t> ref_packed;
    const double ref_compress = timeBest(
        [&] { ref_packed = lz77_reference::compress(corpus); });
    std::vector<std::uint8_t> ref_round;
    const double ref_decompress = timeBest(
        [&] { ref_round = lz77_reference::decompress(ref_packed); });
    bool ok = ref_round == corpus;
    const double ref_aggregate =
        mbps(2 * corpus.size(), ref_compress + ref_decompress);
    ledger.open("referenceSerial");
    ledger.field("compressSeconds", ref_compress);
    ledger.field("decompressSeconds", ref_decompress);
    ledger.field("compressMBps", mbps(corpus.size(), ref_compress));
    ledger.field("decompressMBps", mbps(corpus.size(), ref_decompress));
    ledger.field("aggregateMBps", ref_aggregate);
    ledger.close();
    std::fprintf(stderr,
                 "reference serial: %.1f MB/s compress, %.1f MB/s "
                 "decompress\n",
                 mbps(corpus.size(), ref_compress),
                 mbps(corpus.size(), ref_decompress));

    // --- Container write across the ioThreads sweep. Byte-identity
    // across thread counts is the invariant the exit status guards.
    double write_seconds_at[9] = {};
    ledger.open("write");
    for (const unsigned threads : kThreadSweep) {
        std::string bytes;
        const double s = timeBest(
            [&] { bytes = archivedWith(rec, threads); });
        if (bytes != container) {
            std::fprintf(stderr,
                         "FAIL: ioThreads=%u container differs\n",
                         threads);
            ok = false;
        }
        write_seconds_at[threads] = s;
        ledger.open("ioThreads" + std::to_string(threads));
        ledger.field("seconds", s);
        ledger.field("MBps", mbps(raw.size(), s));
        ledger.close();
    }
    ledger.close();

    // --- readAll across ioThreads x {mmap, buffered}. The mmap path
    // needs a real file; reuse one temp container for the sweep.
    std::string path = "archive_io.dla";
#if defined(__unix__) || defined(__APPLE__)
    path = "/tmp/archive_io." + std::to_string(::getpid()) + ".dla";
#endif
    writeArchiveFile(rec, path);
    double read_seconds_at[2][9] = {};
    for (const bool mmap_reads : {true, false}) {
        ledger.open(mmap_reads ? "readMmap" : "readBuffered");
        for (const unsigned threads : kThreadSweep) {
            const ArchiveIoOptions io{threads, mmap_reads};
            std::string round;
            const double s = timeBest([&] {
                round = savedBytes(
                    ArchiveReader::fromFile(path, io).readAll());
            });
            if (round != raw) {
                std::fprintf(stderr,
                             "FAIL: readAll(mmap=%d, threads=%u) not "
                             "byte-identical\n",
                             mmap_reads ? 1 : 0, threads);
                ok = false;
            }
            read_seconds_at[mmap_reads ? 0 : 1][threads] = s;
            ledger.open("ioThreads" + std::to_string(threads));
            ledger.field("seconds", s);
            ledger.field("MBps", mbps(raw.size(), s));
            ledger.close();
        }
        ledger.close();
    }

    // --- Seek-to-replay: decode only the segments covering the tail
    // interval, off both read paths.
    const ArchiveReader mapped =
        ArchiveReader::fromFile(path, ArchiveIoOptions{4, true});
    const ArchiveReader buffered =
        ArchiveReader::fromFile(path, ArchiveIoOptions{4, false});
    const std::size_t last = mapped.checkpointCount() - 1;
    std::string seek_mapped_bytes;
    const double seek_mapped = timeBest([&] {
        seek_mapped_bytes = savedBytes(mapped.readInterval(last));
    });
    std::string seek_buffered_bytes;
    const double seek_buffered = timeBest([&] {
        seek_buffered_bytes = savedBytes(buffered.readInterval(last));
    });
    if (seek_mapped_bytes != seek_buffered_bytes) {
        std::fprintf(stderr,
                     "FAIL: tail interval differs across read paths\n");
        ok = false;
    }
    ledger.open("seekToReplay");
    ledger.field("fromCheckpoint", last);
    ledger.field("mmapSeconds", seek_mapped);
    ledger.field("bufferedSeconds", seek_buffered);
    ledger.close();
    std::remove(path.c_str());

    // --- The gate: aggregate (write + read) throughput at
    // ioThreads=4, mmap on, vs the reference serial codec.
    const double par_aggregate =
        mbps(2 * raw.size(),
             write_seconds_at[4] + read_seconds_at[0][4]);
    const double speedup =
        ref_aggregate > 0 ? par_aggregate / ref_aggregate : 0.0;
    ledger.open("speedup");
    ledger.field("aggregateMBpsAt4", par_aggregate);
    ledger.field("vsReferenceSerial", speedup);
    ledger.field("writeAt4VsAt1",
                 write_seconds_at[4] > 0
                     ? write_seconds_at[1] / write_seconds_at[4]
                     : 0.0);
    ledger.field("readMmapAt4VsAt1",
                 read_seconds_at[0][4] > 0
                     ? read_seconds_at[0][1] / read_seconds_at[0][4]
                     : 0.0);
    ledger.close();
    ledger.open("invariants");
    ledger.field("bytesIdenticalAcrossThreadsAndPaths", ok);
    ledger.field("meetsTwoXGate", speedup >= 2.0);
    ledger.close();

    std::fprintf(stderr,
                 "aggregate at ioThreads=4: %.1f MB/s vs reference "
                 "%.1f MB/s -> %.2fx\n",
                 par_aggregate, ref_aggregate, speedup);
    if (!ledger.writeTo(JsonLedger::path("DELOREAN_ARCHIVE_JSON",
                                         "BENCH_archive.json")))
        ok = false;
    std::printf("archive_io: byte-identity %s\n",
                ok ? "HELD" : "BROKEN");
    return ok ? 0 : 1;
}
