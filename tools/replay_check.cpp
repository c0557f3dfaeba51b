/**
 * @file
 * replay_check: command-line front end of the validation subsystem.
 *
 *   replay_check --record <app> <mode> <file>   record an execution
 *                                               and serialize it
 *   replay_check <file>                         load + checked replay,
 *                                               print a DivergenceReport
 *   replay_check --differential [<app>|all]     cross-mode differential
 *                                               check (default: all)
 *   replay_check --fault-sweep <app> [<n>]      n mutants per mutation
 *                                               kind per mode (def. 40)
 *   replay_check --ring <dir> [--at <cycle>]    time-travel into a ring
 *                                               archive directory
 *
 * Modes: order-and-size | order-only | order-only-strat | picolog.
 * Exit status 0 = validated, 1 = divergence/violation found,
 * 2 = usage or I/O error. A corrupt input file is NOT an I/O error:
 * it exits 1 with the loader's structured rejection, which is the
 * behavior the fault injector certifies.
 *
 * `--detect-races` (anywhere on the command line) attaches the
 * happens-before race detector to the checked replay of <file> and
 * prints its report. The serial and chunk-parallel replays must
 * produce byte-identical reports or the run exits 1; seeded or real
 * races are findings, not failures, so a deterministic replay that
 * surfaces races still exits 0. Interval replays (--from/--to) reject
 * the flag: the detector needs the complete commit history.
 *
 * `--ring <dir>` opens a ring archive directory — recovering the
 * retained window even after a crash — and replays one checkpoint
 * interval of it. `--at <cycle>` seeks to the newest retained
 * checkpoint at or before that global commit count (the time-travel
 * query: "show me what the machine was doing around cycle C");
 * without it the replay starts at the oldest retained checkpoint.
 * The interval is checked twice, serially and with a windowed replay
 * arbiter (W=8), and the two fingerprints must agree.
 *
 * `--jobs <n>` (anywhere on the command line) sets the worker count
 * for every parallel path — differential fan-out and chunk-parallel
 * replay — overriding DELOREAN_JOBS. Checked file replays always
 * cross-check the chunk-parallel replayer against the serial engine.
 *
 * Archive (.dla) loads honor two data-plane knobs (anywhere on the
 * command line): `--io-threads <n>` sizes the segment codec pool
 * (default: the --jobs / DELOREAN_JOBS resolution) and `--no-mmap`
 * forces buffered reads instead of the zero-copy mmap path. Neither
 * changes any byte of what is read — only how fast.
 *
 * Knobs (environment): DELOREAN_JOBS worker count, DELOREAN_SCALE
 * workload scale percent, DELOREAN_NUM_PROCS processor count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"
#include "trace/workload.hpp"
#include "validate/differential.hpp"
#include "validate/fault_injector.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;

namespace
{

/// Archive data-plane knobs (--io-threads / --no-mmap), set in main.
ArchiveIoOptions archive_io;

/// --detect-races: attach the happens-before detector to file replays.
bool detect_races = false;

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    if (const char *env = std::getenv(name)) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
    }
    return fallback;
}

DifferentialJob
baseJob()
{
    DifferentialJob job;
    job.numProcs = envUnsigned("DELOREAN_NUM_PROCS", job.numProcs);
    job.scalePercent = envUnsigned("DELOREAN_SCALE", job.scalePercent);
    return job;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: replay_check [--jobs <n>] [--detect-races] "
        "[--from <gcc> [--to <gcc>]] <file>\n"
        "       replay_check --record <app> <mode> <file>\n"
        "       replay_check --list-checkpoints <file>\n"
        "       replay_check [--jobs <n>] --differential [<app>|all]\n"
        "       replay_check --fault-sweep <app> [<mutants-per-kind>]\n"
        "       replay_check --ring <dir> [--at <cycle>]\n"
        "modes: order-and-size order-only order-only-strat picolog\n"
        "<file> may be a serialized recording (.dlr) or an archive\n"
        "(.dla, auto-detected by magic). --from/--to replay only the\n"
        "interval between the named checkpoint GCCs (Appendix B); use\n"
        "--list-checkpoints to see the seekable GCCs.\n"
        "archive loads also accept --io-threads <n> (segment codec\n"
        "pool size) and --no-mmap (buffered instead of zero-copy\n"
        "reads); neither changes what is read, only how fast.\n"
        "--detect-races runs the happens-before race detector during\n"
        "the checked replay and prints its report (full-run file\n"
        "replays only; serial and parallel reports must match).\n"
        "--ring opens a ring archive directory (crash-recovered) and\n"
        "replays the checkpoint interval covering --at <cycle> (or\n"
        "the oldest retained interval), serially and windowed.\n");
    return 2;
}

const char *
modeLabel(const Recording &rec)
{
    if (rec.stratified())
        return "order-only-strat";
    if (rec.mode.mode == ExecMode::kPicoLog)
        return "picolog";
    if (rec.mode.mode == ExecMode::kOrderOnly)
        return "order-only";
    return "order-and-size";
}

bool
modeByName(const std::string &name, ModeConfig &mode, unsigned strat)
{
    if (name == "order-and-size") {
        mode = ModeConfig::orderAndSize();
    } else if (name == "order-only") {
        mode = ModeConfig::orderOnly();
    } else if (name == "order-only-strat") {
        mode = ModeConfig::orderOnly();
        mode.stratifyChunksPerProc = strat;
    } else if (name == "picolog") {
        mode = ModeConfig::picoLog();
    } else {
        return false;
    }
    return true;
}

int
doRecord(const std::string &app, const std::string &mode_name,
         const std::string &path)
{
    const DifferentialJob job = baseJob();
    ModeConfig mode;
    if (!modeByName(mode_name, mode, job.stratifyChunksPerProc)) {
        std::fprintf(stderr, "replay_check: unknown mode \"%s\"\n",
                     mode_name.c_str());
        return usage();
    }

    MachineConfig machine;
    machine.numProcs = job.numProcs;
    try {
        Workload workload(app, job.numProcs, job.workloadSeed,
                          WorkloadScale{job.scalePercent});
        const Recording rec =
            Recorder(mode, machine).record(workload, job.recordEnvSeed);
        std::ofstream out(path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "replay_check: cannot write %s\n",
                         path.c_str());
            return 2;
        }
        saveRecording(rec, out);
        std::printf("recorded %s (%s): %zu commits, %llu PI bits, "
                    "%llu CS bits -> %s\n",
                    app.c_str(), mode_name.c_str(),
                    rec.fingerprint.commits.size(),
                    static_cast<unsigned long long>(
                        rec.logSizes().pi.rawBits),
                    static_cast<unsigned long long>(
                        rec.logSizes().cs.rawBits),
                    path.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "replay_check: record failed: %s\n",
                     e.what());
        return 2;
    }
    return 0;
}

/**
 * Maps a --from/--to GCC to its checkpoint index; prints the seekable
 * GCCs and returns nullopt when @p gcc is not one of them (interval
 * replay can only start/stop where a SystemCheckpoint was taken).
 */
std::optional<std::size_t>
checkpointIndexFor(const std::vector<std::uint64_t> &gccs,
                   std::uint64_t gcc, const char *flag)
{
    for (std::size_t i = 0; i < gccs.size(); ++i)
        if (gccs[i] == gcc)
            return i;
    std::fprintf(stderr,
                 "replay_check: %s %llu is not a checkpoint GCC; "
                 "seekable GCCs:",
                 flag, static_cast<unsigned long long>(gcc));
    for (const std::uint64_t g : gccs)
        std::fprintf(stderr, " %llu",
                     static_cast<unsigned long long>(g));
    std::fprintf(stderr, "\n");
    return std::nullopt;
}

/**
 * Segment and checkpoint listing of either container, from the
 * shared segment info: id, GCC interval, raw -> stored payload bytes
 * and which checkpoint images the record stores.
 */
void
listSegments(const SegmentArchiveReader &reader)
{
    for (const SegmentInfo &seg : reader.segments())
        std::printf("  segment %llu: gcc (%llu, %llu], %llu -> %llu "
                    "bytes%s%s%s\n",
                    static_cast<unsigned long long>(seg.segId),
                    static_cast<unsigned long long>(seg.startGcc),
                    static_cast<unsigned long long>(seg.endGcc),
                    static_cast<unsigned long long>(seg.rawBytes),
                    static_cast<unsigned long long>(seg.compBytes),
                    seg.hasStartCheckpoint ? ", start checkpoint" : "",
                    seg.hasEndCheckpoint ? ", end checkpoint" : "",
                    seg.isTail ? ", tail" : "");
    const std::vector<std::uint64_t> gccs = reader.checkpointGccs();
    for (std::size_t i = 0; i < gccs.size(); ++i)
        std::printf("  checkpoint %zu: gcc %llu\n", i,
                    static_cast<unsigned long long>(gccs[i]));
}

int
doListCheckpoints(const std::string &path)
{
    try {
        std::optional<RingArchiveReader> ring;
        std::optional<ArchiveReader> archive;
        const SegmentArchiveReader *reader = nullptr;
        std::string state;
        if (RingArchiveReader::looksLikeRing(path)) {
            reader = &ring.emplace(RingArchiveReader::open(path, archive_io));
            const RingRecoveryInfo &rc = ring->recovery();
            state = std::string(", ")
                    + (rc.clean ? "cleanly closed" : "salvaged")
                    + (rc.usedIndex ? ", index intact" : "");
        } else if (ArchiveReader::fileLooksLikeArchive(path)) {
            reader = &archive.emplace(
                ArchiveReader::fromFile(path, archive_io));
        }
        if (reader) {
            std::printf("%s: %s, %s, %u procs, %zu segment(s), "
                        "%zu checkpoint(s)%s\n",
                        path.c_str(), ring ? "ring" : "archive",
                        reader->appName().c_str(),
                        reader->machine().numProcs,
                        reader->segments().size(),
                        reader->checkpointCount(), state.c_str());
            if (ring)
                for (const std::string &note : ring->recovery().notes)
                    std::printf("  salvage: %s\n", note.c_str());
            listSegments(*reader);
            return 0;
        }
        const Recording rec = loadRecordingFile(path);
        std::printf("%s: recording, %s (%s), %u procs, "
                    "%zu checkpoint(s)\n",
                    path.c_str(), rec.appName.c_str(), modeLabel(rec),
                    rec.machine.numProcs, rec.checkpoints.size());
        for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
            std::printf("  checkpoint %zu: gcc %llu\n", i,
                        static_cast<unsigned long long>(
                            rec.checkpoints[i].gcc));
        return 0;
    } catch (const RecordingFormatError &e) {
        std::printf("%s: rejected at load\n  %s\n", path.c_str(),
                    e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "replay_check: %s: %s\n", path.c_str(),
                     e.what());
        return 2;
    }
}

/**
 * Interval check (--from/--to). For an archive, only the covering
 * segments are decoded (ArchiveReader::readInterval); for a plain
 * recording the interval options select the checkpoint slice of the
 * already-loaded log. Classification compares against the expected
 * interval fingerprint, so exit status 0 means the interval replay
 * reproduced the recorded execution over exactly I(from, to).
 */
int
doCheckInterval(const std::string &path, std::uint64_t from_gcc,
                std::optional<std::uint64_t> to_gcc)
{
    Recording rec;
    ReplayCheckOptions opts;
    // Deliberately forwarded: checkedReplay rejects the combination
    // with a structured report (the detector needs the full history).
    opts.detectRaces = detect_races;
    try {
        if (ArchiveReader::fileLooksLikeArchive(path)) {
            const ArchiveReader reader = ArchiveReader::fromFile(path, archive_io);
            const std::vector<std::uint64_t> gccs =
                reader.checkpointGccs();
            const auto from =
                checkpointIndexFor(gccs, from_gcc, "--from");
            if (!from)
                return 2;
            std::optional<std::size_t> to;
            if (to_gcc) {
                to = checkpointIndexFor(gccs, *to_gcc, "--to");
                if (!to)
                    return 2;
            }
            rec = reader.readInterval(*from, to ? *to
                                                : ArchiveReader::kToEnd);
            // readInterval puts the start checkpoint at index 0 and
            // the stop (when bounded) at index 1.
            opts.startCheckpoint = 0;
            opts.stopCheckpoint =
                to ? 1 : ReplayCheckOptions::kFullRun;
        } else {
            rec = loadRecordingFile(path);
            std::vector<std::uint64_t> gccs;
            for (const SystemCheckpoint &c : rec.checkpoints)
                gccs.push_back(c.gcc);
            const auto from =
                checkpointIndexFor(gccs, from_gcc, "--from");
            if (!from)
                return 2;
            opts.startCheckpoint = *from;
            if (to_gcc) {
                const auto to =
                    checkpointIndexFor(gccs, *to_gcc, "--to");
                if (!to)
                    return 2;
                opts.stopCheckpoint = *to;
            }
        }
    } catch (const RecordingFormatError &e) {
        std::printf("%s: rejected at load\n  %s\n", path.c_str(),
                    e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "replay_check: %s: %s\n", path.c_str(),
                     e.what());
        return 2;
    }

    const ReplayCheckResult check = checkedReplay(rec, opts);
    if (!check.ok) {
        std::printf("%s: %s\n%s\n", path.c_str(),
                    divergenceKindName(check.report.kind),
                    check.report.describe().c_str());
        return 1;
    }
    const std::string to_label =
        to_gcc ? std::to_string(*to_gcc) : std::string("end");
    std::printf("%s: interval replay deterministic over I(%llu, %s) "
                "(%s, %s, %u procs, %zu commits replayed)\n",
                path.c_str(),
                static_cast<unsigned long long>(from_gcc),
                to_label.c_str(), rec.appName.c_str(), modeLabel(rec),
                rec.machine.numProcs,
                check.outcome.fingerprint.commits.size());
    return 0;
}

/**
 * Time travel (--ring [--at <cycle>]). Opens the ring directory —
 * running crash recovery if the index is stale or the tail is torn —
 * seeks to the newest retained checkpoint at or before @p at (oldest
 * retained when absent) and replays forward to the next checkpoint
 * (to the recording's end when the seek lands on the final checkpoint
 * of a cleanly closed ring). The interval replay runs twice, with a
 * serial and a W=8 windowed replay arbiter, and both fingerprints
 * must reproduce the recorded execution.
 */
int
doCheckRing(const std::string &path,
            std::optional<std::uint64_t> at_cycle)
{
    Recording view;
    ReplayCheckOptions opts;
    // Deliberately forwarded: interval replays reject the detector
    // with a structured report, exactly like --from does.
    opts.detectRaces = detect_races;
    std::uint64_t from_gcc = 0;
    std::string to_label = "end";
    try {
        const RingArchiveReader ring =
            RingArchiveReader::open(path, archive_io);
        const RingRecoveryInfo &rc = ring.recovery();
        std::printf("%s: ring %s, %zu segment(s) retained, "
                    "window (%llu, %llu]\n",
                    path.c_str(),
                    rc.clean ? "cleanly closed" : "salvaged",
                    ring.segments().size(),
                    static_cast<unsigned long long>(ring.startGcc()),
                    static_cast<unsigned long long>(ring.endGcc()));
        for (const std::string &note : rc.notes)
            std::printf("  salvage: %s\n", note.c_str());

        if (ring.checkpointCount() == 0) {
            // A clean checkpoint-free ring is one whole-run segment.
            view = ring.readAll();
        } else {
            const std::size_t from =
                at_cycle ? ring.newestCheckpointAtOrBefore(*at_cycle)
                         : 0;
            const std::vector<std::uint64_t> gccs =
                ring.checkpointGccs();
            std::size_t to = RingArchiveReader::kToEnd;
            if (from + 1 < gccs.size()) {
                to = from + 1;
                to_label = std::to_string(gccs[to]);
            } else if (!rc.clean) {
                // The newest retained checkpoint on a crashed ring is
                // the end of the salvaged window; nothing recorded
                // beyond it survived to replay into.
                std::printf("%s: seek landed on the newest retained "
                            "checkpoint (gcc %llu) of a crashed ring; "
                            "no interval to replay forward\n",
                            path.c_str(),
                            static_cast<unsigned long long>(
                                gccs[from]));
                return 1;
            }
            view = ring.readInterval(from, to);
            from_gcc = gccs[from];
            // readInterval puts the start checkpoint at index 0 and
            // the stop (when bounded) at index 1.
            opts.startCheckpoint = 0;
            opts.stopCheckpoint = to != RingArchiveReader::kToEnd
                                      ? 1
                                      : ReplayCheckOptions::kFullRun;
        }
    } catch (const RecordingFormatError &e) {
        std::printf("%s: rejected at load\n  %s\n", path.c_str(),
                    e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "replay_check: %s: %s\n", path.c_str(),
                     e.what());
        return 2;
    }

    const ReplayCheckResult serial = checkedReplay(view, opts);
    if (!serial.ok) {
        std::printf("%s: %s\n%s\n", path.c_str(),
                    divergenceKindName(serial.report.kind),
                    serial.report.describe().c_str());
        return 1;
    }
    ReplayCheckOptions wopts = opts;
    wopts.replayWindow = 8;
    const ReplayCheckResult windowed = checkedReplay(view, wopts);
    const bool agree =
        windowed.replayRan
        && (view.stratified()
                ? windowed.outcome.fingerprint.matchesPerProc(
                      serial.outcome.fingerprint)
                : windowed.outcome.fingerprint.matchesExact(
                      serial.outcome.fingerprint));
    if (!windowed.ok || !agree) {
        std::printf("%s: serial replay deterministic but windowed "
                    "(W=8) replay %s\n%s\n",
                    path.c_str(),
                    windowed.ok ? "differs from serial" : "diverged",
                    windowed.report.describe().c_str());
        return 1;
    }
    std::printf("%s: time-travel replay deterministic over "
                "I(%llu, %s), serial == windowed (%s, %s, %u procs, "
                "%zu commits replayed)\n",
                path.c_str(),
                static_cast<unsigned long long>(from_gcc),
                to_label.c_str(), view.appName.c_str(),
                modeLabel(view), view.machine.numProcs,
                serial.outcome.fingerprint.commits.size());
    return 0;
}

int
doCheckFile(const std::string &path, unsigned jobs)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "replay_check: cannot read %s\n",
                     path.c_str());
        return 2;
    }

    Recording rec;
    const bool is_archive = ArchiveReader::fileLooksLikeArchive(path);
    try {
        if (is_archive)
            rec = ArchiveReader::fromFile(path, archive_io).readAll();
        else
            rec = loadRecording(in);
    } catch (const RecordingFormatError &e) {
        std::printf("%s: rejected at load\n  %s\n", path.c_str(),
                    e.what());
        return 1;
    }

    ReplayCheckOptions copts;
    copts.detectRaces = detect_races;
    const ReplayCheckResult check = checkedReplay(rec, copts);
    if (!check.ok) {
        std::printf("%s: %s\n%s\n", path.c_str(),
                    divergenceKindName(check.report.kind),
                    check.report.describe().c_str());
        return 1;
    }

    // Serial replay reproduced the recording; cross-check the
    // chunk-parallel replayer against it.
    ParallelReplayOptions popts;
    popts.jobs = jobs;
    const ReplayCheckResult par =
        checkedParallelReplay(rec, popts, copts);
    const bool par_matches_serial =
        par.replayRan
        && (rec.stratified()
                ? par.outcome.fingerprint.matchesPerProc(
                      check.outcome.fingerprint)
                : par.outcome.fingerprint.matchesExact(
                      check.outcome.fingerprint));
    if (!par.ok || !par_matches_serial) {
        std::printf("%s: serial replay deterministic but "
                    "chunk-parallel replay %s\n%s\n",
                    path.c_str(),
                    par.ok ? "differs from serial" : "diverged",
                    par.report.describe().c_str());
        return 1;
    }

    if (detect_races) {
        // The race report is a pure function of the recording; the
        // serial engine and the chunk-parallel replayer must agree
        // byte-for-byte or the plugin re-sequencing is broken.
        const std::string serial_report = check.races.describe();
        const std::string parallel_report = par.races.describe();
        if (serial_report != parallel_report) {
            std::printf("%s: race reports differ between serial and "
                        "chunk-parallel replay\n--- serial ---\n%s"
                        "--- parallel ---\n%s",
                        path.c_str(), serial_report.c_str(),
                        parallel_report.c_str());
            return 1;
        }
        std::printf("%s", serial_report.c_str());
    }

    std::printf("%s: replay deterministic, serial == parallel "
                "(%s%s, %s, %u procs, %zu commits)\n",
                path.c_str(), is_archive ? "archive, " : "",
                rec.appName.c_str(), modeLabel(rec),
                rec.machine.numProcs,
                rec.fingerprint.commits.size());
    return 0;
}

int
doDifferential(const std::string &what)
{
    const DifferentialChecker checker;
    const DifferentialJob base = baseJob();

    std::vector<DifferentialResult> results;
    if (what == "all") {
        results = checker.checkAllApps(base);
    } else {
        DifferentialJob job = base;
        job.app = what;
        results.push_back(checker.check(job));
    }

    bool ok = true;
    for (const DifferentialResult &r : results) {
        std::puts(r.describe().c_str());
        ok = ok && r.ok();
    }
    std::printf("differential: %zu job(s) %s\n", results.size(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

int
doFaultSweep(const std::string &app, unsigned per_kind)
{
    const DifferentialJob job = baseJob();
    MachineConfig machine;
    machine.numProcs = job.numProcs;

    bool ok = true;
    for (const auto &[name, mode] :
         {std::pair<const char *, ModeConfig>{"order-and-size",
                                              ModeConfig::orderAndSize()},
          {"order-only", ModeConfig::orderOnly()},
          {"picolog", ModeConfig::picoLog()}}) {
        try {
            Workload workload(app, job.numProcs, job.workloadSeed,
                              WorkloadScale{job.scalePercent});
            const Recording rec = Recorder(mode, machine)
                                      .record(workload,
                                              job.recordEnvSeed);
            const FaultSweepSummary sweep =
                runFaultSweep(rec, per_kind, job.workloadSeed);
            std::printf("%s %s: %s\n", app.c_str(), name,
                        sweep.describe().c_str());
            ok = ok && sweep.ok();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "replay_check: %s %s: %s\n",
                         app.c_str(), name, e.what());
            return 2;
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);

    // --jobs <n> may appear anywhere; it overrides DELOREAN_JOBS for
    // every worker pool the run constructs (campaignJobs()).
    unsigned jobs = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--jobs")
            continue;
        if (i + 1 >= args.size())
            return usage();
        char *end = nullptr;
        const unsigned long v =
            std::strtoul(args[i + 1].c_str(), &end, 10);
        if (end == args[i + 1].c_str() || *end != '\0' || v == 0)
            return usage();
        jobs = static_cast<unsigned>(v);
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        break;
    }
    if (jobs)
        setenv("DELOREAN_JOBS", std::to_string(jobs).c_str(), 1);

    // Archive data-plane knobs, also position-independent.
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--io-threads")
            continue;
        if (i + 1 >= args.size())
            return usage();
        char *end = nullptr;
        const unsigned long v =
            std::strtoul(args[i + 1].c_str(), &end, 10);
        if (end == args[i + 1].c_str() || *end != '\0' || v == 0)
            return usage();
        archive_io.ioThreads = static_cast<unsigned>(v);
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        break;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--no-mmap")
            continue;
        archive_io.mmapReads = false;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
        break;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--detect-races")
            continue;
        detect_races = true;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
        break;
    }

    // --from <gcc> [--to <gcc>]: checkpoint-bounded interval replay.
    std::optional<std::uint64_t> from_gcc;
    std::optional<std::uint64_t> to_gcc;
    for (const char *flag : {"--from", "--to"}) {
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i] != flag)
                continue;
            if (i + 1 >= args.size())
                return usage();
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(args[i + 1].c_str(), &end, 10);
            if (end == args[i + 1].c_str() || *end != '\0')
                return usage();
            (std::strcmp(flag, "--from") == 0 ? from_gcc : to_gcc) = v;
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i)
                           + 2);
            break;
        }
    }
    if (to_gcc && !from_gcc)
        return usage();

    // --at <cycle>: the --ring time-travel seek target.
    std::optional<std::uint64_t> at_cycle;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != "--at")
            continue;
        if (i + 1 >= args.size())
            return usage();
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(args[i + 1].c_str(), &end, 10);
        if (end == args[i + 1].c_str() || *end != '\0')
            return usage();
        at_cycle = v;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        break;
    }

    if (args.empty())
        return usage();

    if (args[0] == "--ring")
        return args.size() == 2 && !from_gcc
                   ? doCheckRing(args[1], at_cycle)
                   : usage();
    if (at_cycle)
        return usage();

    if (args[0] == "--list-checkpoints")
        return args.size() == 2 ? doListCheckpoints(args[1]) : usage();
    if (from_gcc) {
        if (args.size() != 1 || args[0][0] == '-')
            return usage();
        return doCheckInterval(args[0], *from_gcc, to_gcc);
    }
    if (args[0] == "--record")
        return args.size() == 4 ? doRecord(args[1], args[2], args[3])
                                : usage();
    if (args[0] == "--differential")
        return doDifferential(args.size() > 1 ? args[1] : "all");
    if (args[0] == "--fault-sweep") {
        if (args.size() < 2 || args.size() > 3)
            return usage();
        const unsigned per_kind =
            args.size() == 3
                ? static_cast<unsigned>(std::strtoul(
                      args[2].c_str(), nullptr, 10))
                : 40;
        if (per_kind == 0)
            return usage();
        return doFaultSweep(args[1], per_kind);
    }
    if (args.size() == 1 && args[0][0] != '-')
        return doCheckFile(args[0], jobs);
    return usage();
}
