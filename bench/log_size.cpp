/**
 * @file
 * log_size: the bits-per-kilo-instruction ledger -> BENCH_logsize.json.
 *
 * For every SPLASH-2-style application and all four recording
 * configurations (Order&Size, OrderOnly flat, OrderOnly stratified,
 * PicoLog) this harness records once with periodic checkpoints and
 * measures the durable-storage story end to end:
 *
 *   - the paper's Figs. 9-10 metric: memory-ordering log bits per
 *     processor per kilo-instruction, raw and compressed, asserting
 *     the ordering PicoLog < OrderOnly < Order&Size per application;
 *   - container sizes: the serialized recording (.dlr) vs the
 *     segmented archive (.dla, src/store), asserting archived <= raw
 *     for every app/mode, plus the compression ratio;
 *   - seek-vs-full-replay: wall time to replay the tail interval
 *     I(last checkpoint, end) straight off the archive (decode only
 *     the covering segments, resume from the checkpoint) vs a full
 *     replay of the whole recording.
 *
 * Stdout carries only deterministic facts (bits, sizes, ratios); the
 * wall-clock seek/full timings go to the JSON and stderr. Exit status
 * reflects the two invariants, not the speedup. Path override:
 * DELOREAN_LOGSIZE_JSON.
 */

#include <chrono>
#include <sstream>

#include "bench_util.hpp"
#include "core/serialize.hpp"
#include "ledger.hpp"
#include "store/archive.hpp"

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr std::uint64_t kCheckpointPeriod = 40;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModeRow
{
    const char *label;
    ModeConfig mode;
};

struct Cell
{
    LogSizeReport sizes;
    std::uint64_t rawBytes = 0;     // serialized .dlr
    std::uint64_t archiveBytes = 0; // segmented .dla
    std::size_t checkpoints = 0;
    double fullReplaySeconds = 0;
    double seekReplaySeconds = 0;
    bool replaysOk = false;

    double
    compressionRatio() const
    {
        return archiveBytes > 0 ? static_cast<double>(rawBytes)
                                      / static_cast<double>(archiveBytes)
                                : 0.0;
    }

    double
    seekSpeedup() const
    {
        return seekReplaySeconds > 0
                   ? fullReplaySeconds / seekReplaySeconds
                   : 0.0;
    }
};

std::uint64_t
serializedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return static_cast<std::uint64_t>(out.str().size());
}

} // namespace

int
main()
{
    header("log_size: bits/kilo-instruction and archive sizes",
           "Figs. 9-10 ordering PicoLog < OrderOnly < Order&Size; "
           "archived container never larger than the raw recording");

    const unsigned scale = benchScale(25);
    const MachineConfig machine;

    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    const ModeRow modes[] = {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", strat},
        {"picolog", ModeConfig::picoLog()},
    };
    const std::vector<std::string> &apps = AppTable::splash2Names();

    BenchCampaign campaign("log_size");
    std::vector<std::function<std::vector<Cell>()>> tasks;
    for (const std::string &app : apps) {
        tasks.push_back([&campaign, &machine, &modes, app, scale]() {
            std::vector<Cell> row;
            for (const ModeRow &m : modes) {
                Workload w(app, machine.numProcs, kSeed,
                           WorkloadScale{scale});
                const Recording rec =
                    Recorder(m.mode, machine)
                        .record(w, /*env_seed=*/1, true, {},
                                kCheckpointPeriod);
                campaign.account(rec.stats);

                Cell cell;
                cell.sizes = rec.logSizes();
                cell.rawBytes = serializedBytes(rec);
                cell.checkpoints = rec.checkpoints.size();

                std::ostringstream arch(std::ios::binary);
                writeArchive(rec, arch);
                const std::string blob = std::move(arch).str();
                cell.archiveBytes =
                    static_cast<std::uint64_t>(blob.size());

                // Full replay of the whole recording...
                const Clock::time_point t_full = Clock::now();
                const ReplayOutcome full =
                    Replayer().replay(rec, w, /*env_seed=*/77);
                cell.fullReplaySeconds = secondsSince(t_full);
                campaign.account(full.stats);

                // ...vs seek to the last checkpoint and replay only
                // the tail interval off the archive (parse + decode
                // of the covering segments included in the timing —
                // that is the cost a consumer actually pays).
                const Clock::time_point t_seek = Clock::now();
                const ArchiveReader reader = ArchiveReader::fromBytes(
                    std::vector<std::uint8_t>(blob.begin(),
                                              blob.end()));
                const Recording view = reader.readInterval(
                    reader.checkpointCount() - 1);
                const ReplayOutcome tail = Replayer().replayInterval(
                    view, 0, w, /*env_seed=*/78);
                cell.seekReplaySeconds = secondsSince(t_seek);
                campaign.account(tail.stats);

                const bool strat_mode = rec.stratified();
                cell.replaysOk =
                    (strat_mode ? full.deterministicPerProc
                                : full.deterministicExact)
                    && (strat_mode ? tail.deterministicPerProc
                                   : tail.deterministicExact);
                row.push_back(cell);
            }
            return row;
        });
    }
    const std::vector<std::vector<Cell>> rows =
        campaign.map(std::move(tasks));

    std::printf("%-10s | %-15s | %9s %9s | %8s %8s | %5s | %s\n",
                "app", "mode", "bits/kI", "comp'd", "raw-B",
                "arch-B", "ckpts", "replays");
    bool ordering_ok = true;
    bool archived_leq_raw = true;
    bool replays_ok = true;
    std::vector<double> ratios;
    std::vector<double> speedups;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
            const Cell &cell = rows[ai][mi];
            std::printf("%-10s | %-15s | %9.3f %9.3f | %8llu %8llu "
                        "| %5zu | %s\n",
                        apps[ai].c_str(), modes[mi].label,
                        cell.sizes.bitsPerProcPerKiloInstr(false),
                        cell.sizes.bitsPerProcPerKiloInstr(true),
                        static_cast<unsigned long long>(cell.rawBytes),
                        static_cast<unsigned long long>(
                            cell.archiveBytes),
                        cell.checkpoints,
                        cell.replaysOk ? "ok" : "DIVERGED");
            archived_leq_raw = archived_leq_raw
                               && cell.archiveBytes <= cell.rawBytes;
            replays_ok = replays_ok && cell.replaysOk;
            ratios.push_back(cell.compressionRatio());
            speedups.push_back(cell.seekSpeedup());
        }
        // Paper ordering per application, on the Figs. 9-10 metric
        // (raw memory-ordering bits; modes[0]=O&S, [1]=OrderOnly
        // flat, [3]=PicoLog).
        const double os =
            rows[ai][0].sizes.bitsPerProcPerKiloInstr(false);
        const double oo =
            rows[ai][1].sizes.bitsPerProcPerKiloInstr(false);
        const double pico =
            rows[ai][3].sizes.bitsPerProcPerKiloInstr(false);
        if (!(pico < oo && oo < os)) {
            std::printf("%-10s | ORDERING VIOLATED: picolog %.3f, "
                        "order-only %.3f, order-and-size %.3f\n",
                        apps[ai].c_str(), pico, oo, os);
            ordering_ok = false;
        }
    }
    std::printf("\npaper ordering (PicoLog < OrderOnly < Order&Size): "
                "%s\n",
                ordering_ok ? "preserved on all apps" : "VIOLATED");
    std::printf("archived <= raw for every app/mode: %s\n",
                archived_leq_raw ? "yes" : "NO (BUG)");
    std::printf("full + tail-interval replays deterministic: %s\n",
                replays_ok ? "yes" : "NO (BUG)");

    // ---- BENCH_logsize.json -----------------------------------------
    JsonLedger ledger("log_size");
    ledger.host();
    ledger.field("scalePercent", scale);
    ledger.field("checkpointPeriod", kCheckpointPeriod);
    ledger.field("numProcs", machine.numProcs);
    ledger.open("apps");
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        ledger.open(apps[ai]);
        for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
            const Cell &cell = rows[ai][mi];
            ledger.open(modes[mi].label);
            ledger.field("piBits", cell.sizes.pi.rawBits);
            ledger.field("csBits", cell.sizes.cs.rawBits);
            ledger.field("bitsPerProcPerKiloInstr",
                         cell.sizes.bitsPerProcPerKiloInstr(false));
            ledger.field("compressedBitsPerProcPerKiloInstr",
                         cell.sizes.bitsPerProcPerKiloInstr(true));
            ledger.field("rawBytes", cell.rawBytes);
            ledger.field("archiveBytes", cell.archiveBytes);
            ledger.field("compressionRatio", cell.compressionRatio());
            ledger.field("checkpoints", cell.checkpoints);
            ledger.field("fullReplaySeconds", cell.fullReplaySeconds);
            ledger.field("seekReplaySeconds", cell.seekReplaySeconds);
            ledger.field("seekSpeedup", cell.seekSpeedup());
            ledger.field("replaysOk", cell.replaysOk);
            ledger.close();
        }
        ledger.close();
    }
    ledger.close();
    ledger.open("summary");
    ledger.field("orderingPreserved", ordering_ok);
    ledger.field("archivedLeqRawEverywhere", archived_leq_raw);
    ledger.field("replaysDeterministicEverywhere", replays_ok);
    ledger.field("compressionRatioGeomean", geoMean(ratios));
    ledger.field("seekSpeedupGeomean", geoMean(speedups));
    if (!ledger.writeTo(JsonLedger::path("DELOREAN_LOGSIZE_JSON",
                                         "BENCH_logsize.json")))
        return 2;

    return ordering_ok && archived_leq_raw && replays_ok ? 0 : 1;
}
