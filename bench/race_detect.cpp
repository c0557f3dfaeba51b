/**
 * @file
 * race_detect: replay-time race-detector overhead -> BENCH_race.json.
 *
 * The pitch of replay-time analysis is that heavyweight instrumentation
 * costs nothing at record time — the detector rides the replay. This
 * harness quantifies the replay-side cost: for every SPLASH-2-style
 * application plus three seeded-race variants it records once
 * (OrderOnly), then replays four ways — serial and chunk-parallel,
 * each with the happens-before detector off and on — and reports the
 * wall-clock overhead ratio of detection per replayer.
 *
 * Every cell also asserts the analysis contract while it measures:
 *
 *   - serial and parallel detector reports are byte-identical,
 *   - seeded variants detect their manifest exactly,
 *   - race-free applications produce a clean report.
 *
 * The exit status reflects those invariants, not the overhead.
 * Timings are best-of-kReps; stdout carries only deterministic facts
 * (byte-identical at any DELOREAN_JOBS), wall-clock overheads go to
 * stderr and BENCH_race.json (path override: DELOREAN_RACE_JSON).
 */

#include <algorithm>
#include <chrono>
#include <set>

#include "analysis/race_detector.hpp"
#include "bench_util.hpp"
#include "ledger.hpp"
#include "sim/parallel_replay.hpp"
#include "trace/app_profile.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr unsigned kWindow = 8;
constexpr unsigned kReps = 2; // best-of for wall timings

struct Cell
{
    std::string app;
    bool seeded = false;
    double serialPlainSec = 0;
    double serialDetectSec = 0;
    double parallelPlainSec = 0;
    double parallelDetectSec = 0;
    std::uint64_t accessesChecked = 0;
    std::uint64_t wordsTracked = 0;
    std::size_t racesFound = 0;
    std::size_t manifestSize = 0;
    bool contractOk = false;

    double
    serialOverhead() const
    {
        return serialPlainSec > 0 ? serialDetectSec / serialPlainSec
                                  : 0.0;
    }

    double
    parallelOverhead() const
    {
        return parallelPlainSec > 0
                   ? parallelDetectSec / parallelPlainSec
                   : 0.0;
    }
};

/** Best wall time of kReps runs of @p fn (which returns ok). */
template <typename Fn>
double
bestOf(Fn &&fn, bool *ok)
{
    double best = 0;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const bool run_ok = fn();
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        *ok = *ok && run_ok;
        best = rep == 0 ? sec : std::min(best, sec);
    }
    return best;
}

} // namespace

int
main()
{
    header("race_detect: happens-before detector overhead on replay",
           "record-time cost is zero by construction; replay-side "
           "overhead expected well under 2x either replayer");

    const unsigned scale = benchScale(20);
    const MachineConfig machine;
    const unsigned jobs = std::max(4u, defaultJobs());

    std::vector<std::string> apps = AppTable::splash2Names();
    const std::size_t race_free_count = apps.size();
    for (const char *seeded : {"fft~r4", "lu~r4", "radix~r4"})
        apps.push_back(seeded);

    BenchCampaign campaign("race_detect");
    std::vector<std::function<Cell()>> tasks;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const std::string app = apps[ai];
        const bool seeded = ai >= race_free_count;
        tasks.push_back([&campaign, &machine, app, seeded, scale,
                         jobs]() {
            RecordJob job;
            job.app = app;
            job.workloadSeed = kSeed;
            job.scalePercent = scale;
            job.machine = machine;
            job.mode = ModeConfig::orderOnly();
            const Recording &rec = campaign.record(job);

            Cell cell;
            cell.app = app;
            cell.seeded = seeded;
            cell.contractOk = true;

            ReplayCheckOptions plain;
            ReplayCheckOptions detect;
            detect.detectRaces = true;
            ParallelReplayOptions popts;
            popts.window = kWindow;
            popts.jobs = jobs;

            RaceReport serial_races;
            cell.serialPlainSec = bestOf(
                [&]() {
                    const ReplayCheckResult r = checkedReplay(rec, plain);
                    campaign.account(r.outcome.stats);
                    return r.ok;
                },
                &cell.contractOk);
            cell.serialDetectSec = bestOf(
                [&]() {
                    const ReplayCheckResult r =
                        checkedReplay(rec, detect);
                    campaign.account(r.outcome.stats);
                    serial_races = r.races;
                    return r.ok;
                },
                &cell.contractOk);

            RaceReport parallel_races;
            cell.parallelPlainSec = bestOf(
                [&]() {
                    const ReplayCheckResult r =
                        checkedParallelReplay(rec, popts, plain);
                    campaign.addSim(0, r.outcome.stats.executedInstrs);
                    return r.ok;
                },
                &cell.contractOk);
            cell.parallelDetectSec = bestOf(
                [&]() {
                    const ReplayCheckResult r =
                        checkedParallelReplay(rec, popts, detect);
                    campaign.addSim(0, r.outcome.stats.executedInstrs);
                    parallel_races = r.races;
                    return r.ok;
                },
                &cell.contractOk);

            // Analysis contract, asserted alongside the measurement.
            cell.contractOk =
                cell.contractOk
                && serial_races.describe() == parallel_races.describe();
            cell.accessesChecked = serial_races.accessesChecked;
            cell.wordsTracked = serial_races.wordsTracked;
            cell.racesFound = serial_races.findings.size();
            const std::vector<Addr> manifest =
                seededRaceManifest(AppTable::byName(app));
            cell.manifestSize = manifest.size();
            std::set<Addr> found;
            for (const RaceFinding &f : serial_races.findings)
                found.insert(f.word);
            cell.contractOk =
                cell.contractOk
                && found
                       == std::set<Addr>(manifest.begin(),
                                         manifest.end())
                && cell.racesFound == cell.manifestSize;
            return cell;
        });
    }
    const std::vector<Cell> cells = campaign.map(std::move(tasks));

    std::printf("%-12s | %8s %8s | %5s/%-5s | %s\n", "app",
                "accesses", "words", "races", "manif", "ok");
    bool all_ok = true;
    std::vector<double> serial_overheads;
    std::vector<double> parallel_overheads;
    for (const Cell &cell : cells) {
        std::printf("%-12s | %8llu %8llu | %5zu/%-5zu | %s\n",
                    cell.app.c_str(),
                    static_cast<unsigned long long>(
                        cell.accessesChecked),
                    static_cast<unsigned long long>(cell.wordsTracked),
                    cell.racesFound, cell.manifestSize,
                    cell.contractOk ? "ok" : "FAILED");
        // Wall-clock detail stays off stdout (determinism contract).
        std::fprintf(stderr,
                     "[race_detect] %-12s detector overhead: serial "
                     "%.2fx, chunk-parallel %.2fx\n",
                     cell.app.c_str(), cell.serialOverhead(),
                     cell.parallelOverhead());
        all_ok = all_ok && cell.contractOk;
        serial_overheads.push_back(cell.serialOverhead());
        parallel_overheads.push_back(cell.parallelOverhead());
    }
    std::fprintf(stderr,
                 "[race_detect] geomean detector overhead: serial "
                 "%.2fx, chunk-parallel %.2fx (jobs=%u, window=%u)\n",
                 geoMean(serial_overheads),
                 geoMean(parallel_overheads), jobs, kWindow);
    std::printf("\nmanifest-exact + zero-FP + serial==parallel "
                "reports: %s\n",
                all_ok ? "YES" : "NO (BUG)");

    // ---- BENCH_race.json --------------------------------------------
    delorean_bench::JsonLedger ledger("race_detect");
    ledger.field("jobs", jobs);
    ledger.field("window", kWindow);
    ledger.field("scalePercent", scale);
    ledger.open("apps");
    for (const Cell &cell : cells) {
        ledger.open(cell.app);
        ledger.field("seeded", cell.seeded);
        ledger.field("serialPlainSec", cell.serialPlainSec);
        ledger.field("serialDetectSec", cell.serialDetectSec);
        ledger.field("serialOverhead", cell.serialOverhead());
        ledger.field("parallelPlainSec", cell.parallelPlainSec);
        ledger.field("parallelDetectSec", cell.parallelDetectSec);
        ledger.field("parallelOverhead", cell.parallelOverhead());
        ledger.field("accessesChecked", cell.accessesChecked);
        ledger.field("wordsTracked", cell.wordsTracked);
        ledger.field("racesFound", cell.racesFound);
        ledger.field("manifestSize", cell.manifestSize);
        ledger.field("contractOk", cell.contractOk);
        ledger.close();
    }
    ledger.close();
    ledger.open("summary");
    ledger.field("serialOverheadGeomean", geoMean(serial_overheads));
    ledger.field("parallelOverheadGeomean",
                 geoMean(parallel_overheads));
    ledger.field("contractOkEverywhere", all_ok);
    if (!ledger.writeTo(delorean_bench::JsonLedger::path(
            "DELOREAN_RACE_JSON", "BENCH_race.json")))
        return 2;

    return all_ok ? 0 : 1;
}
