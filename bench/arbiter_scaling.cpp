/**
 * @file
 * arbiter_scaling: sharded-arbitration benchmark -> BENCH_arbiter.json.
 *
 * For every SPLASH-2-style application the harness records under
 * OrderOnly across a (simulated cores x arbiter shards) grid and
 * replays each recording two ways:
 *
 *   serial   — the cycle-accurate engine, replayWindow 1, honoring
 *              the recorded partial order (a no-op at shards=1);
 *   parallel — the host-parallel chunk-body replayer at the recorded
 *              partial order, best-of-3 wall throughput.
 *
 * Reported per cell: commit-serialization stalls (the mean fraction
 * of a processor's cycles spent stalled waiting for a commit grant —
 * the contention the shard hierarchy exists to relieve), the
 * cross-shard edge rate (fraction of commits whose address footprint
 * spans shards and therefore still serializes through the root
 * arbiter), partial-order relaxed retires during parallel replay, and
 * host replay throughput serial vs parallel plus their speedup.
 *
 * Every cell also asserts that the partial-order serial replay, the
 * total-order serial replay (honorPartialOrder=false), and the
 * partial-order and total-order parallel replays all produce
 * byte-identical fingerprints — the exit status reflects that
 * invariant, not the speedup.
 *
 * Recording and the total-order checks run as a campaign,
 * DELOREAN_JOBS wide. The two timed legs (serial and partial-order
 * parallel) run afterwards, one cell at a time on the main thread, so
 * the parallel replayer gets its whole width from the executor and
 * neither leg shares the host with the campaign.
 *
 * Output: stdout table plus BENCH_arbiter.json (path override:
 * DELOREAN_ARBITER_JSON).
 */

#include <algorithm>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "sim/parallel_replay.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr unsigned kParallelReps = 3; // best-of for wall timings

struct GridPoint
{
    unsigned cores;
    unsigned shards;
};

// 8-core/1-shard is the unsharded baseline every other point is
// compared against; 16 and 32 cores run sharded (and 16 also
// unsharded, to separate the core-count effect from the shard
// hierarchy's).
constexpr GridPoint kGrid[] = {
    {8, 1}, {8, 4}, {16, 1}, {16, 8}, {32, 8},
};

struct Cell
{
    double recordCycles = 0;
    double stallFraction = 0;      // mean per-proc commit-stall share
    std::uint64_t shardLocalCommits = 0;
    std::uint64_t crossShardCommits = 0;
    std::uint64_t poRelaxedRetires = 0;
    double serialThroughput = 0;   // retired instrs / wall second
    double parallelThroughput = 0; // ditto, chunk-parallel replayer
    ExecutionFingerprint totalOrderFingerprint;
    bool fingerprintsIdentical = false;

    double
    crossShardRate() const
    {
        const std::uint64_t total =
            shardLocalCommits + crossShardCommits;
        return total ? static_cast<double>(crossShardCommits)
                           / static_cast<double>(total)
                     : 0.0;
    }

    double
    speedup() const
    {
        return serialThroughput > 0
                   ? parallelThroughput / serialThroughput
                   : 0.0;
    }
};

double
throughput(const EngineStats &stats)
{
    return stats.wallSeconds > 0
               ? static_cast<double>(stats.retiredInstrs)
                     / stats.wallSeconds
               : 0.0;
}

} // namespace

int
main()
{
    header("arbiter_scaling: sharded arbitration vs core count",
           "partial-order parallel replay at 16+ cores should beat "
           "the 8-core unsharded speedup; fingerprints byte-identical "
           "to total-order replay everywhere");

    const unsigned scale = benchScale(10);
    const unsigned jobs = std::max(4u, defaultJobs());
    const std::vector<std::string> &apps = AppTable::splash2Names();

    const auto job_for = [scale](const std::string &app,
                                 const GridPoint &g) {
        RecordJob job;
        job.app = app;
        job.workloadSeed = kSeed;
        job.scalePercent = scale;
        job.machine.numProcs = g.cores;
        job.machine.bulk.numArbiters = g.shards;
        job.mode = ModeConfig::orderOnly();
        return job;
    };
    const auto parallel_options = [jobs](const GridPoint &g) {
        ParallelReplayOptions popts;
        popts.window = std::max(8u, g.cores / 2);
        popts.jobs = jobs;
        return popts;
    };

    BenchCampaign campaign("arbiter_scaling");
    std::vector<std::function<std::vector<Cell>()>> tasks;
    for (const std::string &app : apps) {
        tasks.push_back([&campaign, &job_for, &parallel_options, app]() {
            std::vector<Cell> row;
            for (const GridPoint &g : kGrid) {
                const Recording &rec = campaign.record(job_for(app, g));
                Cell cell;
                cell.recordCycles =
                    static_cast<double>(rec.stats.totalCycles);
                cell.stallFraction = rec.stats.stallFraction();
                cell.shardLocalCommits = rec.stats.shardLocalCommits;
                cell.crossShardCommits = rec.stats.crossShardCommits;

                ReplayCheckOptions topts;
                topts.honorPartialOrder = false;
                const ReplayCheckResult total = checkedReplay(rec, topts);
                campaign.account(total.outcome.stats);

                ParallelReplayOptions tpopts = parallel_options(g);
                tpopts.honorPartialOrder = false;
                const ReplayCheckResult ptotal =
                    checkedParallelReplay(rec, tpopts);
                campaign.addSim(0, ptotal.outcome.stats.executedInstrs);

                cell.totalOrderFingerprint = total.outcome.fingerprint;
                cell.fingerprintsIdentical =
                    total.ok && ptotal.ok
                    && ptotal.outcome.fingerprint.matchesExact(
                        total.outcome.fingerprint);
                row.push_back(std::move(cell));
            }
            return row;
        });
    }
    std::vector<std::vector<Cell>> rows = campaign.map(std::move(tasks));

    // The timed legs, one cell at a time.
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        for (std::size_t gi = 0; gi < std::size(kGrid); ++gi) {
            const GridPoint &g = kGrid[gi];
            Cell &cell = rows[ai][gi];
            const Recording &rec = campaign.record(job_for(apps[ai], g));
            Workload w(apps[ai], g.cores, kSeed, WorkloadScale{scale});

            const ReplayOutcome serial =
                Replayer().replay(rec, w, /*env_seed=*/77);
            campaign.account(serial.stats);
            cell.serialThroughput = throughput(serial.stats);

            const ParallelReplayer parallel(parallel_options(g));
            ReplayOutcome par;
            for (unsigned rep = 0; rep < kParallelReps; ++rep) {
                par = parallel.replay(rec, w);
                campaign.addSim(0, par.stats.executedInstrs);
                cell.parallelThroughput = std::max(
                    cell.parallelThroughput, throughput(par.stats));
            }
            cell.poRelaxedRetires = par.stats.poRelaxedRetires;

            cell.fingerprintsIdentical =
                cell.fingerprintsIdentical && serial.deterministicExact
                && par.deterministicExact
                && serial.fingerprint.matchesExact(
                    cell.totalOrderFingerprint)
                && par.fingerprint.matchesExact(serial.fingerprint);
        }
    }

    std::printf("%-10s | %5s %6s | %6s | %6s | %8s | %9s | %s\n", "app",
                "cores", "shards", "stall", "xshard", "po-relax",
                "speedup", "fp");
    bool all_identical = true;
    std::vector<std::vector<double>> grid_speedups(std::size(kGrid));
    std::vector<unsigned> beats_baseline(std::size(kGrid), 0);
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const double base = rows[ai][0].speedup(); // 8 cores, 1 shard
        for (std::size_t gi = 0; gi < std::size(kGrid); ++gi) {
            const Cell &cell = rows[ai][gi];
            std::printf("%-10s | %5u %6u | %5.1f%% | %5.1f%% | %8llu | "
                        "%8.2fx | %s\n",
                        apps[ai].c_str(), kGrid[gi].cores,
                        kGrid[gi].shards, 100.0 * cell.stallFraction,
                        100.0 * cell.crossShardRate(),
                        static_cast<unsigned long long>(
                            cell.poRelaxedRetires),
                        cell.speedup(),
                        cell.fingerprintsIdentical ? "ok" : "MISMATCH");
            all_identical = all_identical && cell.fingerprintsIdentical;
            grid_speedups[gi].push_back(cell.speedup());
            if (cell.speedup() > base)
                ++beats_baseline[gi];
        }
    }

    std::printf("\n%-14s | %9s | %s\n", "configuration", "geomean",
                "apps beating their 8-core/1-shard speedup");
    for (std::size_t gi = 0; gi < std::size(kGrid); ++gi)
        std::printf("%3u cores /%3u | %8.2fx | %u/%zu\n",
                    kGrid[gi].cores, kGrid[gi].shards,
                    geoMean(grid_speedups[gi]), beats_baseline[gi],
                    apps.size());
    std::printf("partial-order == total-order fingerprints everywhere: "
                "%s\n",
                all_identical ? "YES" : "NO (BUG)");

    // ---- BENCH_arbiter.json -----------------------------------------
    delorean_bench::JsonLedger ledger("arbiter_scaling");
    ledger.field("jobs", jobs);
    ledger.field("scalePercent", scale);
    ledger.open("apps");
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        ledger.open(apps[ai]);
        for (std::size_t gi = 0; gi < std::size(kGrid); ++gi) {
            const Cell &cell = rows[ai][gi];
            ledger.open("c" + std::to_string(kGrid[gi].cores) + "s"
                        + std::to_string(kGrid[gi].shards));
            ledger.field("cores", kGrid[gi].cores);
            ledger.field("shards", kGrid[gi].shards);
            ledger.field("recordCycles", cell.recordCycles);
            ledger.field("commitStallFraction", cell.stallFraction);
            ledger.field("shardLocalCommits", cell.shardLocalCommits);
            ledger.field("crossShardCommits", cell.crossShardCommits);
            ledger.field("crossShardRate", cell.crossShardRate());
            ledger.field("poRelaxedRetires", cell.poRelaxedRetires);
            ledger.field("serialThroughput", cell.serialThroughput);
            ledger.field("parallelThroughput", cell.parallelThroughput);
            ledger.field("parallelSpeedup", cell.speedup());
            ledger.field("fingerprintsIdentical",
                         cell.fingerprintsIdentical);
            ledger.close();
        }
        ledger.close();
    }
    ledger.close();
    ledger.open("summary");
    for (std::size_t gi = 0; gi < std::size(kGrid); ++gi) {
        ledger.open("c" + std::to_string(kGrid[gi].cores) + "s"
                    + std::to_string(kGrid[gi].shards));
        ledger.field("speedupGeomean", geoMean(grid_speedups[gi]));
        ledger.field("appsBeatingBaseline", beats_baseline[gi]);
        ledger.close();
    }
    ledger.field("appCount", apps.size());
    ledger.field("fingerprintsIdenticalEverywhere", all_identical);
    if (!ledger.writeTo(delorean_bench::JsonLedger::path(
            "DELOREAN_ARBITER_JSON", "BENCH_arbiter.json")))
        return 2;

    return all_identical ? 0 : 1;
}
