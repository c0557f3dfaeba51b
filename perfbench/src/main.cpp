/**
 * @file
 * perfbench: the end-to-end benchmark of the record -> ring -> seek ->
 * replay -> serve pipeline, driven through the library's public API.
 *
 *   perfbench --workload <always-on|commit-heavy> --seed <n>
 *             [--trace 0|1] [--seconds <n>] [--workdir <dir>]
 *             [--outdir <dir>] [--source-id <id>]
 *
 * One run does a fixed amount of work (no time-limited loops). Set-up
 * builds the workloads, records the fixture and its seeded-race twin and
 * writes the fixture's .dla archive. Then come one untimed warm-up round
 * and a fixed number of timed rounds, each doing every op once and the
 * race scan a few times; the set-up is repeated between rounds (the
 * median is setup_s):
 *
 *   record   always-on recording into a RingArchiveWriter, through close()
 *   seek     cold (open + seek + interval read + checked replay) and warm
 *            (same without the open) time travel
 *   replay   .dla open + readAll + ParallelReplayer
 *   race     parallel replay with a RaceDetector on the ~r16 variant
 *   serve    ServeService over a session list
 *
 * Throughputs are total work over total wall time of a phase's ops.
 * On a shared host an op runs either fast or slowed by its neighbours,
 * so a median of short samples jumps between the two speeds while a
 * mean moves with the share of slowed time; hence means and totals
 * wherever the metric's definition leaves the choice open.
 *
 * The recordings are fixed per workload, so every byte and event count
 * repeats exactly across runs; --seed only draws the seek targets and
 * the replay environment seeds. Every output is checked; a failed
 * check counts as a failed op and the exit status is 1.
 *
 * --trace 1 additionally keeps every span, writes them as Chrome
 * trace-event JSON plus a per-layer self-time table into --outdir, runs
 * the per-layer probes (serial replay, codec, detector-free replay) and
 * reports the per-layer metrics instead of the end-to-end ones. The
 * last stdout line is always the JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/race_detector.hpp"
#include "compress/lz77.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "perf_support.hpp"
#include "serve/service.hpp"
#include "sim/parallel_replay.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"
#include "validate/replay_check.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace delorean;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/// Archive/ring ioThreads and serve jobs. Busy threads in any phase
/// stay within a 4-core host (engine thread + ring flusher + one codec
/// worker).
constexpr unsigned kWidth = 2;
/// ParallelReplayer jobs for the replay and race phases. At 2 jobs the
/// per-wave hand-offs between two CPUs made these the most
/// host-sensitive metrics of the run, for about 9% more throughput.
constexpr unsigned kReplayJobs = 1;
/// Serve record sessions stream their .dla archives single-threaded.
constexpr unsigned kServeIoThreads = 1;
constexpr unsigned kReplayWindow = 8;
constexpr unsigned kProcs = 8;
constexpr std::uint64_t kWorkloadSeed = 1;
constexpr std::uint64_t kRecordEnvSeed = 7;
constexpr unsigned kRaceWords = 16;
constexpr std::uint64_t kUnbounded = ~std::uint64_t{0} >> 1;
/// Set-ups per run: one before the rounds and one after every
/// kSetupEvery-th round; setup_s is their median.
constexpr int kSetupReps = 5;
/// Timed rounds per run; each records, replays and serves once, race-scans
/// WorkloadSpec::raceScans times and runs its share of the seeks.
constexpr int kRounds = 8;
constexpr int kSetupEvery = kRounds / (kSetupReps - 1);

struct ServeKey
{
    std::string app;
    ModeConfig mode;
};

/** One named workload: the pipeline fixture plus the run's shape. */
struct WorkloadSpec
{
    std::string name;
    // Pipeline fixture (record, seek, replay, race).
    std::string app;
    unsigned scale = 100;
    ModeConfig mode;
    unsigned arbiters = 1;
    std::uint64_t period = 50;
    std::uint64_t ringBudget = kUnbounded;
    // The seeks of a run are coldPasses (warmPasses) passes over every
    // retained interval, shared out evenly over the kRounds rounds.
    int coldPasses = 1;
    int warmPasses = 1;
    /// Race scans per round (at most 4, one between each two phases).
    int raceScans = 1;
};

ModeConfig
stratified()
{
    ModeConfig m = ModeConfig::orderOnly();
    m.stratifyChunksPerProc = 4;
    return m;
}

/**
 * The serve session mix both workloads run: 4 apps x Order&Size /
 * OrderOnly / stratified, one record, replay and validate session per
 * key in round-robin order (so two thirds of sessions hit the
 * RecordingCache), record sessions streaming .dla archives.
 */
std::vector<ServeKey>
serveKeys()
{
    std::vector<ServeKey> keys;
    for (const char *app : {"radix", "fft", "lu", "ocean"})
        for (const ModeConfig &m :
             {ModeConfig::orderAndSize(), ModeConfig::orderOnly(), stratified()})
            keys.push_back({app, m});
    return keys;
}
constexpr unsigned kServeScale = 5;
constexpr unsigned kServeArbiters = 4;
constexpr std::uint64_t kServePeriod = 50;

std::vector<WorkloadSpec>
workloads()
{
    std::vector<WorkloadSpec> out;

    // Always-on: short checkpoint period, ring budget far below the
    // bytes written, so checkpoint images and eviction dominate store
    // work and the ring open dominates a cold seek.
    WorkloadSpec a;
    a.name = "always-on";
    a.app = "ocean";
    a.scale = 20;
    a.mode = ModeConfig::orderAndSize();
    a.arbiters = 1;
    a.period = 30;
    a.ringBudget = 8u << 20;
    a.coldPasses = 2;
    a.warmPasses = 30;
    a.raceScans = 4;
    out.push_back(a);

    // Commit-heavy: the DES engine (sharded arbiter, conflict sweeps,
    // squashes) dominates recording; long
    // intervals make interval replay dominate a warm seek. 8 procs:
    // stock apps race once the layout lanes wrap past
    // AddressLayout::kLaneCount.
    WorkloadSpec c;
    c.name = "commit-heavy";
    c.app = "radix";
    c.scale = 60;
    c.mode = ModeConfig::orderOnly();
    c.arbiters = 4;
    c.period = 400;
    c.ringBudget = kUnbounded;
    c.coldPasses = 12;
    c.warmPasses = 24;
    c.raceScans = 3;
    out.push_back(c);
    return out;
}

/** Failure accounting: every op is attempted once and may fail. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    done(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 20)
                errors.push_back(what);
        }
    }

    /** A check that is not an op of its own still fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            done(false, what);
    }
};

/** Removes the run's scratch directory on every exit path. */
struct WorkDir
{
    fs::path path;

    explicit WorkDir(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note; ///< sample count / percentile, human output only
};

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (const double x : v)
        s += x;
    return s;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/** A seek: the retained interval it must land in and the cycle asked for. */
using SeekTarget = std::pair<std::size_t, std::uint64_t>;

/** Everything one run measures and keeps between phases. */
struct Run
{
    const WorkloadSpec &spec;
    Tracer &tracer;
    Ops ops;
    std::mt19937_64 rng;
    fs::path dir;
    ArchiveIoOptions io{kWidth, true};

    MachineConfig machine;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<Workload> raceWorkload;
    Recording fixture;
    Recording race;
    std::string dlaPath;
    std::uint64_t dlaBytes = 0;
    std::uint64_t fixtureHash = 0;

    // record phase
    std::vector<double> recordSec;
    std::uint64_t recordInstrs = 0; ///< generated, per rep
    RingWriterStats ringStats;
    EngineStats recordStats;
    RingOptions ringOpts;
    std::string recordDigest;

    // seek phase
    std::vector<SeekTarget> coldTargets;
    std::vector<SeekTarget> warmTargets;
    std::vector<double> coldSeekMs;
    std::vector<double> warmSeekMs;
    std::size_t retainedCheckpoints = 0;

    // replay phase
    std::vector<double> replaySec;
    std::uint64_t replayInstrs = 0;
    EngineStats parallelStats;

    // race phase
    std::vector<double> raceSec;
    std::uint64_t raceInstrs = 0;
    std::size_t raceFindings = 0;

    // serve phase
    std::vector<double> serveWallSec;
    std::size_t serveSessions = 0;
    std::vector<double> sessionMs;
    std::map<ServeClass, std::vector<double>> sessionMsByClass;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    unsigned peakInflight = 0;
    std::uint64_t serveArchiveBytes = 0;
    std::string serveDigest;

    // per-layer probes (traced runs only)
    std::vector<double> serialReplaySec;
    std::vector<double> raceBaseSec;
    double serializeMs = 0;
    std::uint64_t serializedBytes = 0;
    double compressSec = 0;
    double decompressSec = 0;
    std::uint64_t compressedBytes = 0;

    std::vector<double> setupSec;
    std::string setupDigest;

    Run(const WorkloadSpec &s, Tracer &t, std::uint64_t seed, fs::path d)
        : spec(s), tracer(t), rng(seed), dir(std::move(d))
    {
        machine.numProcs = kProcs;
        machine.bulk.numArbiters = spec.arbiters;
    }

    /** Run @p fn as one op; exceptions count as failures. */
    template <typename Fn>
    void
    op(const std::string &what, Fn &&fn)
    {
        bool ok = false;
        std::string why = what;
        try {
            ok = fn();
        } catch (const std::exception &e) {
            why = what + ": " + e.what();
        }
        ops.done(ok, why);
    }
};

/** Identity of a recording for the repeat-equality checks. */
std::string
recordingDigest(const Recording &rec)
{
    return std::to_string(rec.fingerprint.hash()) + "/"
           + std::to_string(rec.stats.generatedInstrs) + "/"
           + std::to_string(rec.stats.committedChunks) + "/"
           + std::to_string(rec.stats.squashes) + "/"
           + std::to_string(rec.checkpoints.size());
}

// ----- phases ----------------------------------------------------------------

/**
 * One set-up: build the workloads, record the fixture and its
 * seeded-race twin, and write the fixture's .dla, timed from @p t0.
 * Every repetition must rebuild the same bytes. The first runs before
 * the rounds; the others run between rounds, so that the median sees
 * the host over the whole run rather than in its first seconds.
 */
void
setup(Run &r, std::int64_t t0)
{
    const WorkloadSpec &w = r.spec;
    const Recorder recorder(w.mode, r.machine);
    Span whole(r.tracer, "setup");
    {
        Span s(r.tracer, "trace.workload_build");
        r.workload = std::make_unique<Workload>(w.app, kProcs, kWorkloadSeed,
                                                WorkloadScale{w.scale});
        r.raceWorkload = std::make_unique<Workload>(
            w.app + "~r" + std::to_string(kRaceWords), kProcs, kWorkloadSeed,
            WorkloadScale{w.scale});
    }
    {
        Span s(r.tracer, "core.record_fixture");
        r.fixture = recorder.record(*r.workload, kRecordEnvSeed, true, {},
                                    w.period);
    }
    {
        Span s(r.tracer, "core.record_race_fixture");
        r.race = recorder.record(*r.raceWorkload, kRecordEnvSeed);
    }
    r.dlaPath = (r.dir / "fixture.dla").string();
    {
        Span s(r.tracer, "store.archive.write");
        writeArchiveFile(r.fixture, r.dlaPath, r.io);
    }
    r.dlaBytes = fs::file_size(r.dlaPath);
    whole.stop();
    r.setupSec.push_back((nowNs() - t0) * 1e-9);

    const std::string digest = recordingDigest(r.fixture) + "/"
                               + recordingDigest(r.race) + "/"
                               + std::to_string(r.dlaBytes);
    if (r.setupDigest.empty()) {
        r.setupDigest = digest;
        r.fixtureHash = r.fixture.fingerprint.hash();
    }
    r.ops.check(digest == r.setupDigest,
                "setup: fixture differs between repetitions");
    r.ops.check(r.fixture.checkpoints.size() >= 3,
                "setup: fixture has fewer than 3 checkpoints");
}

/**
 * Opens an untimed warm-up scope: every span opened inside it belongs to
 * an op rooted at "warmup", which the per-layer table leaves out.
 */
std::unique_ptr<Span>
warmupScope(Run &r, bool warm)
{
    return warm ? std::make_unique<Span>(r.tracer, "warmup") : nullptr;
}

/** One always-on recording into a fresh ring directory, through close(). */
void
recordOnce(Run &r, bool warm, const std::string &dir)
{
    const WorkloadSpec &w = r.spec;
    const Recorder recorder(w.mode, r.machine);
    r.op("record", [&] {
        fs::remove_all(dir);
        RingWriterStats stats;
        Recording rec;
        Span op(r.tracer, "record");
        {
            RingArchiveWriter writer(dir, r.ringOpts);
            {
                Span s(r.tracer, "core.record");
                rec = recorder.record(*r.workload, kRecordEnvSeed, true, {},
                                      w.period, [&](const Recording &partial) {
                                          Span h(r.tracer, "store.ring.hook");
                                          writer.onCheckpoint(partial);
                                      });
            }
            {
                Span s(r.tracer, "store.ring.close_drain");
                writer.close(rec);
            }
            stats = writer.stats();
        }
        const double sec = op.stop();
        const std::string digest =
            recordingDigest(rec) + "/" + std::to_string(stats.bytesWritten)
            + "/" + std::to_string(stats.segmentsCut) + "/"
            + std::to_string(stats.segmentsEvicted) + "/"
            + std::to_string(stats.liveBytes) + "/"
            + std::to_string(stats.worstStartLag);
        if (r.recordDigest.empty())
            r.recordDigest = digest;
        if (!warm) {
            r.recordSec.push_back(sec);
            r.recordInstrs = rec.stats.generatedInstrs;
            r.ringStats = stats;
            r.recordStats = rec.stats;
        }
        return rec.fingerprint.hash() == r.fixtureHash
               && stats.worstStartLag <= r.ringOpts.resolvedLag()
               && digest == r.recordDigest;
    });
}

/** A seek into retained interval @p i, at a seeded cycle inside it. */
SeekTarget
seekTarget(Run &r, const std::vector<std::uint64_t> &gccs, std::size_t i)
{
    return {i, gccs[i] + r.rng() % (gccs[i + 1] - gccs[i])};
}

/**
 * The seek targets of a run: @p passes passes over every retained
 * interval (shuffledPasses). A seek replays its whole interval, so the
 * cost mix does not depend on the seed; the seed picks only the order
 * and the cycle inside each interval.
 */
std::vector<SeekTarget>
seekTargets(Run &r, const std::vector<std::uint64_t> &gccs, int passes)
{
    std::vector<SeekTarget> out;
    for (const std::size_t i : shuffledPasses(gccs.size() - 1, passes, r.rng))
        out.push_back(seekTarget(r, gccs, i));
    return out;
}

/** One seek: seek + interval read + checked replay on an open ring. */
bool
seekOnce(Run &r, const RingArchiveReader &ring, std::size_t expect,
         std::uint64_t cycle)
{
    const std::size_t i = ring.newestCheckpointAtOrBefore(cycle);
    Recording view;
    {
        Span s(r.tracer, "store.ring.read_interval");
        view = ring.readInterval(i, i + 1);
    }
    ReplayCheckOptions opts;
    opts.envSeed = 100 + r.rng() % 1000;
    opts.startCheckpoint = 0;
    opts.stopCheckpoint = 1;
    Span s(r.tracer, "validate.interval_replay");
    const ReplayCheckResult res = checkedReplay(view, opts);
    return i == expect && res.ok && res.outcome.deterministicExact;
}

/**
 * One time-travel seek per @p cold target that opens the ring first,
 * then one per @p warm target on one open reader.
 */
void
seeks(Run &r, const std::string &dir, const std::vector<SeekTarget> &cold,
      const std::vector<SeekTarget> &warm, bool warmup)
{
    for (const auto &[expect, cycle] : cold) {
        r.op("cold seek", [&] {
            Span op(r.tracer, "seek.cold");
            std::unique_ptr<RingArchiveReader> ring;
            {
                Span s(r.tracer, "store.ring.open");
                ring = std::make_unique<RingArchiveReader>(
                    RingArchiveReader::open(dir, r.io));
            }
            const bool ok = seekOnce(r, *ring, expect, cycle);
            const double ms = op.stop() * 1e3;
            if (!warmup)
                r.coldSeekMs.push_back(ms);
            return ok;
        });
    }
    if (warm.empty())
        return;
    const RingArchiveReader ring = RingArchiveReader::open(dir, r.io);
    for (const auto &[expect, cycle] : warm) {
        r.op("warm seek", [&] {
            Span op(r.tracer, "seek.warm");
            const bool ok = seekOnce(r, ring, expect, cycle);
            const double ms = op.stop() * 1e3;
            if (!warmup)
                r.warmSeekMs.push_back(ms);
            return ok;
        });
    }
}

/** .dla open + readAll + parallel replay, fingerprint checked. */
void
replayOnce(Run &r, bool warm)
{
    ParallelReplayOptions popts;
    popts.jobs = kReplayJobs;
    popts.window = kReplayWindow;
    r.op("replay", [&] {
        Span op(r.tracer, "replay");
        Recording all;
        {
            std::unique_ptr<ArchiveReader> reader;
            {
                Span s(r.tracer, "store.archive.open");
                reader = std::make_unique<ArchiveReader>(
                    ArchiveReader::fromFile(r.dlaPath, r.io));
            }
            Span s(r.tracer, "store.archive.read_all");
            all = reader->readAll();
        }
        ReplayOutcome out;
        {
            Span s(r.tracer, "sim.replay.parallel");
            out = ParallelReplayer(popts).replay(all);
        }
        const double sec = op.stop();
        if (!warm) {
            r.replaySec.push_back(sec);
            r.replayInstrs = all.stats.retiredInstrs;
            r.parallelStats = out.stats;
        }
        return out.deterministicExact && out.fingerprint.hash() == r.fixtureHash;
    });
}

/**
 * Parallel replay of the seeded-race fixture; with @p detect the
 * RaceDetector must report exactly the manifest's words. @p sink
 * receives the wall time.
 */
void
raceOnce(Run &r, bool detect, std::vector<double> *sink)
{
    r.op(detect ? "race scan" : "race base replay", [&] {
        const std::vector<Addr> manifest =
            seededRaceManifest(AppTable::byName(r.race.appName));
        const std::set<Addr> expected(manifest.begin(), manifest.end());
        RaceDetector detector;
        ParallelReplayOptions popts;
        popts.jobs = kReplayJobs;
        popts.window = kReplayWindow;
        popts.observer = detect ? &detector : nullptr;
        Span op(r.tracer, detect ? "race_scan" : "race_scan.base");
        const ReplayOutcome out = ParallelReplayer(popts).replay(r.race);
        const double sec = op.stop();
        if (sink)
            sink->push_back(sec);
        r.raceInstrs = r.race.stats.retiredInstrs;
        if (!out.deterministicExact)
            return false;
        if (!detect)
            return true;
        std::set<Addr> found;
        for (const RaceFinding &f : detector.report().findings)
            found.insert(f.word);
        r.raceFindings = detector.report().findings.size();
        return found == expected && r.raceFindings == expected.size();
    });
}

/**
 * The session list of one service run over the first @p keys serve keys:
 * the record, replay and validate session of each key in turn, so a
 * replay or validate session can find its recording still being made
 * and wait for it. The order is fixed, because it decides which
 * sessions wait on which recording; the seed draws only the replay
 * environment seeds.
 */
std::vector<ServeJob>
serveJobs(Run &r, std::size_t keys)
{
    const std::vector<ServeKey> all = serveKeys();
    std::vector<ServeJob> jobs;
    for (std::size_t i = 0; i < keys; ++i)
        for (const ServeClass cls :
             {ServeClass::kRecord, ServeClass::kReplay, ServeClass::kValidate}) {
            ServeJob job;
            job.cls = cls;
            job.record.app = all[i].app;
            job.record.mode = all[i].mode;
            job.record.workloadSeed = kWorkloadSeed;
            job.record.scalePercent = kServeScale;
            job.record.machine.numProcs = kProcs;
            job.record.machine.bulk.numArbiters = kServeArbiters;
            job.record.envSeed = kRecordEnvSeed;
            job.replayEnvSeed = 100 + r.rng() % 1000;
            jobs.push_back(job);
        }
    return jobs;
}

/** One ServeService run over the session list (one key when warming up). */
void
serveOnce(Run &r, bool warm, const fs::path &sdir)
{
    const std::vector<ServeJob> jobs =
        serveJobs(r, warm ? 1 : serveKeys().size());
    ServeOptions o;
    o.jobs = kWidth;
    o.maxInflight = kWidth;
    o.checkpointPeriod = kServePeriod;
    o.archiveIo.ioThreads = kServeIoThreads;
    o.archiveDir = (sdir / "dla").string();
    fs::remove_all(sdir);
    fs::create_directories(sdir);
    ServeReport report;
    {
        Span s(r.tracer, "serve.run");
        report = ServeService(o).run(jobs);
        if (!warm)
            r.serveWallSec.push_back(s.stop());
    }
    fs::remove_all(sdir);
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const ServeSessionResult &res = report.sessions[i];
        r.ops.done(res.ok, std::string("serve session: ")
                               + serveClassName(jobs[i].cls) + " "
                               + jobs[i].record.app + ": " + res.error);
        if (warm)
            continue;
        r.sessionMs.push_back(res.seconds * 1e3);
        r.sessionMsByClass[jobs[i].cls].push_back(res.seconds * 1e3);
    }
    if (warm)
        return;
    std::string digest = std::to_string(report.cacheHits) + "/"
                         + std::to_string(report.cacheMisses);
    for (const ServeRecordingInfo &info : report.recordings)
        digest += "/" + std::to_string(info.archiveBytes);
    if (r.serveDigest.empty())
        r.serveDigest = digest;
    r.ops.check(digest == r.serveDigest,
                "serve: cache or archive counts differ between repetitions");
    r.serveSessions += report.sessions.size();
    r.cacheHits = report.cacheHits;
    r.cacheMisses = report.cacheMisses;
    r.peakInflight = std::max(r.peakInflight, report.peakInflight);
    r.serveArchiveBytes = report.archiveBytesTotal();
}

/** Serial DES replay of the fixture: the base of the parallel speedup. */
void
serialReplayOnce(Run &r)
{
    r.op("serial replay", [&] {
        Span op(r.tracer, "sim.replay.serial");
        const ReplayOutcome out = Replayer().replay(r.fixture, 99);
        r.serialReplaySec.push_back(op.stop());
        return out.deterministicExact && out.fingerprint.hash() == r.fixtureHash;
    });
}

/**
 * The timed part of a run: one untimed warm-up round, then kRounds
 * rounds that each record, seek, replay and serve once, with the
 * round's race scans between these phases. Interleaving the phases
 * spreads every metric's samples over the whole run, so a slow stretch
 * of the host touches all of them a little instead of one of them a
 * lot. Traced runs also replay serially and replay the race fixture
 * without a detector next to every replay and race scan, the runs these
 * bases are compared with.
 */
void
rounds(Run &r)
{
    const WorkloadSpec &w = r.spec;
    const bool traced = r.tracer.enabled();
    r.ringOpts.budgetBytes = w.ringBudget;
    r.ringOpts.checkpointPeriod = w.period;
    r.ringOpts.io = r.io;
    const std::string ring = (r.dir / "ring").string();
    for (int round = -1; round < kRounds; ++round) {
        const bool warm = round < 0;
        int scans = warm ? 1 : w.raceScans;
        const auto raceScan = [&] {
            if (scans-- <= 0)
                return;
            const auto scope = warmupScope(r, warm);
            raceOnce(r, true, warm ? nullptr : &r.raceSec);
            if (traced && !warm)
                raceOnce(r, false, &r.raceBaseSec);
        };
        {
            const auto scope = warmupScope(r, warm);
            recordOnce(r, warm, ring);
        }
        raceScan();
        std::vector<SeekTarget> cold, hot;
        if (warm) {
            const RingArchiveReader reader = RingArchiveReader::open(ring, r.io);
            const std::vector<std::uint64_t> gccs = reader.checkpointGccs();
            r.retainedCheckpoints = reader.checkpointCount();
            if (gccs.size() < 2)
                throw std::runtime_error(
                    "ring retains fewer than 2 checkpoints");
            cold = hot = {seekTarget(r, gccs, r.rng() % (gccs.size() - 1))};
            r.coldTargets = seekTargets(r, gccs, w.coldPasses);
            r.warmTargets = seekTargets(r, gccs, w.warmPasses);
        } else {
            cold = evenShare(r.coldTargets, round, kRounds);
            hot = evenShare(r.warmTargets, round, kRounds);
        }
        {
            const auto scope = warmupScope(r, warm);
            seeks(r, ring, cold, hot, warm);
        }
        raceScan();
        {
            const auto scope = warmupScope(r, warm);
            replayOnce(r, warm);
            if (traced && !warm)
                serialReplayOnce(r);
        }
        raceScan();
        {
            const auto scope = warmupScope(r, warm);
            serveOnce(r, warm, r.dir / "serve");
        }
        raceScan();
        if (!warm && (round + 1) % kSetupEvery == 0)
            setup(r, nowNs());
    }
}

/** Per-layer codec probe on the fixture's serialized bytes. */
void
codecProbe(Run &r)
{
    r.op("codec round trip", [&] {
        std::vector<std::uint8_t> bytes;
        {
            Span s(r.tracer, "core.serialize");
            std::ostringstream out(std::ios::binary);
            saveRecording(r.fixture, out);
            const std::string str = std::move(out).str();
            bytes.assign(str.begin(), str.end());
            r.serializeMs = s.stop() * 1e3;
        }
        r.serializedBytes = bytes.size();
        const Lz77 codec;
        std::vector<std::uint8_t> packed, unpacked;
        {
            Span s(r.tracer, "compress.lz77_compress");
            packed = codec.compress(bytes);
            r.compressSec = s.stop();
        }
        {
            Span s(r.tracer, "compress.lz77_decompress");
            unpacked = codec.decompress(packed);
            r.decompressSec = s.stop();
        }
        r.compressedBytes = packed.size();
        return unpacked == bytes;
    });
}

// ----- reporting ---------------------------------------------------------------

std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

struct Usage
{
    double cpuSec = 0;
    double maxRssMb = 0;
    long involCtx = 0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuSec = ru.ru_utime.tv_sec + ru.ru_stime.tv_sec
               + (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.maxRssMb = ru.ru_maxrss / 1024.0;
    u.involCtx = ru.ru_nivcsw;
    return u;
}

std::vector<Metric>
endToEnd(const Run &r, const Usage &u)
{
    std::vector<Metric> m;
    const auto n = [](const std::vector<double> &v) {
        return "n=" + std::to_string(v.size());
    };
    // A throughput is total work over total wall time of the run's ops
    // (each op does @p work).
    const auto rate = [](double work, const std::vector<double> &sec) {
        return work * static_cast<double>(sec.size()) / sum(sec);
    };
    const auto tailNote = [](const std::vector<double> &v) {
        return fmt("p%.1f", tailPercentile(v.size())) + ", n="
               + std::to_string(v.size());
    };
    std::string reps;
    for (const double sec : r.setupSec)
        reps += fmt(" %.3f", sec);
    m.push_back({"setup_s", median(r.setupSec), "s",
                 "median, " + n(r.setupSec) + ":" + reps});
    m.push_back({"peak_rss_mb", u.maxRssMb, "MB", "getrusage max RSS"});
    m.push_back({"record_minstr_per_s", rate(r.recordInstrs / 1e6, r.recordSec),
                 "Minstr/s", "total over " + n(r.recordSec)});
    m.push_back({"stored_bytes_per_kinstr",
                 r.ringStats.bytesWritten / (r.recordInstrs / 1e3), "B/kinstr",
                 "ring bytesWritten per generated kinstr"});
    m.push_back({"first_seek_ms", sum(r.coldSeekMs) / r.coldSeekMs.size(), "ms",
                 "mean, " + n(r.coldSeekMs)
                     + fmt(", p50 %.4g", median(r.coldSeekMs))});
    m.push_back({"seek_ms_mean", sum(r.warmSeekMs) / r.warmSeekMs.size(), "ms",
                 "mean, " + n(r.warmSeekMs)
                     + fmt(", p50 %.4g", median(r.warmSeekMs))});
    m.push_back({"seek_ms_tail", tail(r.warmSeekMs), "ms",
                 tailNote(r.warmSeekMs)});
    m.push_back({"replay_minstr_per_s", rate(r.replayInstrs / 1e6, r.replaySec),
                 "Minstr/s", "total over " + n(r.replaySec)});
    m.push_back({"race_scan_minstr_per_s", rate(r.raceInstrs / 1e6, r.raceSec),
                 "Minstr/s", "total over " + n(r.raceSec)});
    m.push_back({"serve_sessions_per_s",
                 rate(static_cast<double>(r.serveSessions) / r.serveWallSec.size(),
                      r.serveWallSec),
                 "1/s", "total over " + n(r.serveWallSec) + " service runs"});
    m.push_back({"serve_session_ms_p50", median(r.sessionMs), "ms",
                 "p50, " + n(r.sessionMs)});
    m.push_back({"serve_session_ms_tail", tail(r.sessionMs), "ms",
                 tailNote(r.sessionMs)});
    return m;
}

std::vector<Metric>
perLayer(const Run &r, const Usage &u, double wall_sec)
{
    const std::map<std::string, LayerRow> rows =
        layerTable(r.tracer.spans(), "warmup");
    const auto row = [&](const char *name) -> const LayerRow & {
        static const LayerRow empty;
        const auto it = rows.find(name);
        return it == rows.end() ? empty : it->second;
    };
    const auto medMs = [&](const char *name) {
        const LayerRow &lr = row(name);
        return lr.durationsMs.empty() ? 0.0 : median(lr.durationsMs);
    };
    const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double record_reps = static_cast<double>(r.recordSec.size());
    const EngineStats &st = r.recordStats;
    const RingWriterStats &rs = r.ringStats;
    const auto cls = [&](ServeClass c) {
        const auto it = r.sessionMsByClass.find(c);
        return it == r.sessionMsByClass.end() ? 0.0 : median(it->second);
    };

    std::vector<Metric> m;
    const auto add = [&m](const char *name, double value, const char *unit) {
        m.push_back({name, value, unit, ""});
    };
    add("trace.workload_build_ms", medMs("trace.workload_build"),
                 "ms");
    add("core.record_self_s",
                 row("core.record").selfMs / 1e3 / record_reps, "s");
    add("core.useful_instr_frac",
                 frac(st.retiredInstrs, st.executedInstrs), "ratio");
    add("core.sig_filter_reject_frac",
                 frac(st.sigSummaryRejects,
                      st.sigSummaryRejects + st.sigSummaryHits),
                 "ratio");
    add("core.cross_shard_commit_frac",
                 frac(st.crossShardCommits,
                      st.crossShardCommits + st.shardLocalCommits),
                 "ratio");
    add("core.generated_minstr", st.generatedInstrs / 1e6, "Minstr");
    add("core.committed_chunks",
                 static_cast<double>(st.committedChunks), "count");
    add("core.squashes", static_cast<double>(st.squashes), "count");
    add("store.ring.hook_ms",
                 row("store.ring.hook").totalMs / record_reps, "ms");
    add("store.ring.close_drain_ms",
                 row("store.ring.close_drain").totalMs / record_reps, "ms");
    add("store.ring.segments_cut",
                 static_cast<double>(rs.segmentsCut), "count");
    add("store.ring.segments_evicted",
                 static_cast<double>(rs.segmentsEvicted), "count");
    add("store.ring.bytes_written",
                 static_cast<double>(rs.bytesWritten), "B");
    add("store.ring.live_bytes", static_cast<double>(rs.liveBytes),
                 "B");
    add("store.ring.worst_start_lag_commits",
                 static_cast<double>(rs.worstStartLag), "commits");
    add("store.ring.open_ms", medMs("store.ring.open"), "ms");
    add("store.ring.read_interval_ms_p50",
                 medMs("store.ring.read_interval"), "ms");
    add("store.ring.retained_checkpoints",
                 static_cast<double>(r.retainedCheckpoints), "count");
    add("validate.interval_replay_ms_p50",
                 medMs("validate.interval_replay"), "ms");
    add("core.serialize_ms", r.serializeMs, "ms");
    add("compress.lz77_compress_mb_per_s",
                 r.serializedBytes / 1e6 / r.compressSec, "MB/s");
    add("compress.lz77_decompress_mb_per_s",
                 r.serializedBytes / 1e6 / r.decompressSec, "MB/s");
    add("compress.lz77_ratio",
                 frac(r.serializedBytes, r.compressedBytes), "x");
    add("store.archive.write_ms", medMs("store.archive.write"), "ms");
    add("store.archive.bytes", static_cast<double>(r.dlaBytes), "B");
    add("store.archive.open_ms", medMs("store.archive.open"), "ms");
    add("store.archive.read_all_ms", medMs("store.archive.read_all"),
                 "ms");
    const double parallel_s = medMs("sim.replay.parallel") / 1e3;
    add("sim.replay.parallel_s", parallel_s, "s");
    add("sim.replay.serial_s", median(r.serialReplaySec), "s");
    add("sim.replay.parallel_speedup",
        frac(sum(r.serialReplaySec), row("sim.replay.parallel").totalMs / 1e3),
        "x");
    add("sim.replay.window_occupancy_mean",
                 r.parallelStats.replayWindowOccupancy.mean(), "slots");
    add("sim.replay.po_relaxed_retires",
                 static_cast<double>(r.parallelStats.poRelaxedRetires),
                 "count");
    add("analysis.race.detector_overhead_x",
                 frac(sum(r.raceSec), sum(r.raceBaseSec)), "x");
    add("analysis.race.findings",
                 static_cast<double>(r.raceFindings), "count");
    add("serve.cache_hit_frac",
                 frac(r.cacheHits, r.cacheHits + r.cacheMisses), "ratio");
    add("serve.peak_inflight", static_cast<double>(r.peakInflight),
                 "count");
    add("serve.record_ms_p50", cls(ServeClass::kRecord), "ms");
    add("serve.replay_ms_p50", cls(ServeClass::kReplay), "ms");
    add("serve.validate_ms_p50", cls(ServeClass::kValidate), "ms");
    add("proc.cpu_s", u.cpuSec, "s");
    add("proc.cpu_util", frac(u.cpuSec, wall_sec), "cores");
    add("proc.invol_ctx_switches", static_cast<double>(u.involCtx),
                 "count");
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                                       "\"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-36s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
}

void
writeTrace(const Run &r, const fs::path &outdir, const std::string &stem)
{
    fs::create_directories(outdir);
    const fs::path trace = outdir / (stem + ".trace.json");
    std::ofstream(trace) << chromeTraceJson(r.tracer.spans());
    const fs::path table = outdir / (stem + ".layers.tsv");
    std::ofstream out(table);
    out << "span\tcount\ttotal_ms\tself_ms\tp50_ms\n";
    std::printf("per-layer self time (timed ops, warm-ups excluded):\n");
    std::printf("  %-30s %6s %12s %12s %10s\n", "span", "count", "total_ms",
                "self_ms", "p50_ms");
    for (const auto &[name, row] : layerTable(r.tracer.spans(), "warmup")) {
        const double p50 = median(row.durationsMs);
        out << name << '\t' << row.count << '\t' << row.totalMs << '\t'
            << row.selfMs << '\t' << p50 << '\n';
        std::printf("  %-30s %6zu %12.3f %12.3f %10.3f\n", name.c_str(),
                    row.count, row.totalMs, row.selfMs, p50);
    }
    std::printf("trace written: %s, %s\n", trace.c_str(), table.c_str());
}

int
usageError(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<always-on|commit-heavy> --seed <n> "
                 "[--trace 0|1] [--seconds <n>] [--workdir <dir>] "
                 "[--outdir <dir>] [--source-id <id>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t process_start = nowNs();
    std::string name, workdir = ".bench_work", outdir = ".bench_out",
                      source_id = "unknown";
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool trace = false;
    double seconds = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usageError(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            name = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return usageError("--seed needs a whole number");
            have_seed = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usageError("--trace takes 0 or 1");
            trace = v == "1";
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end)
                return usageError("--seconds needs a number");
        } else if (a == "--workdir") {
            workdir = v;
        } else if (a == "--outdir") {
            outdir = v;
        } else if (a == "--source-id") {
            source_id = v;
        } else {
            return usageError(("unknown option " + a).c_str());
        }
    }
    const std::vector<WorkloadSpec> specs = workloads();
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : specs)
        if (w.name == name)
            spec = &w;
    if (!spec || !have_seed)
        return usageError(spec ? "--seed is required" : "unknown --workload");

    Tracer tracer(trace);
    const std::string stem =
        spec->name + "-seed" + std::to_string(seed) + "-" + std::to_string(getpid());
    Run r(*spec, tracer, seed, fs::absolute(fs::path(workdir) / stem));
    {
        WorkDir scratch(r.dir);
        try {
            setup(r, process_start);
            rounds(r);
            if (trace)
                codecProbe(r);
        } catch (const std::exception &e) {
            r.ops.check(false, std::string("aborted: ") + e.what());
        }
    }
    const double wall_sec = (nowNs() - process_start) * 1e-9;
    const Usage u = usage();
    const bool correct = r.ops.failed == 0;

    std::printf("perfbench: workload=%s seed=%llu trace=%d wall=%.2fs "
                "(nominal --seconds %g; work per run is fixed)\n",
                spec->name.c_str(), static_cast<unsigned long long>(seed),
                trace ? 1 : 0, wall_sec, seconds);
    std::printf(
        "host: {\"nproc\": %ld, \"cpu_model\": \"%s\", \"build_type\": "
        "\"%s\", \"compiler\": \"%s\", \"source\": \"%s\", \"seed\": %llu, "
        "\"widths\": {\"ring_io_threads\": %u, \"archive_io_threads\": %u, "
        "\"replay_jobs\": %u, \"replay_window\": %u, \"serve_jobs\": %u, "
        "\"serve_max_inflight\": %u, \"serve_io_threads\": %u}}\n",
        sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(readCpuModel()).c_str(),
        PERFBENCH_BUILD_TYPE, jsonEscape(__VERSION__).c_str(),
        jsonEscape(source_id).c_str(), static_cast<unsigned long long>(seed),
        kWidth, kWidth, kReplayJobs, kReplayWindow, kWidth, kWidth,
        kServeIoThreads);
    std::printf(
        "phases: {\"app\": \"%s\", \"scale\": %u, \"period\": %llu, "
        "\"arbiters\": %u, \"checkpoints\": %zu, \"segments_cut\": %llu, "
        "\"segments_evicted\": %llu, \"retained_checkpoints\": %zu, "
        "\"generated_instrs\": %llu, \"archive_bytes\": %llu, "
        "\"serve_sessions\": %zu, \"serve_cache_hits\": %llu, "
        "\"serve_archive_bytes\": %llu, \"race_findings\": %zu}\n",
        spec->app.c_str(), spec->scale,
        static_cast<unsigned long long>(spec->period), spec->arbiters,
        r.fixture.checkpoints.size(),
        static_cast<unsigned long long>(r.ringStats.segmentsCut),
        static_cast<unsigned long long>(r.ringStats.segmentsEvicted),
        r.retainedCheckpoints,
        static_cast<unsigned long long>(r.recordInstrs),
        static_cast<unsigned long long>(r.dlaBytes), r.serveSessions,
        static_cast<unsigned long long>(r.cacheHits),
        static_cast<unsigned long long>(r.serveArchiveBytes), r.raceFindings);
    std::printf("ops: attempted %llu, failed %llu, ops_failed_frac %.6g\n",
                static_cast<unsigned long long>(r.ops.attempted),
                static_cast<unsigned long long>(r.ops.failed),
                r.ops.attempted
                    ? static_cast<double>(r.ops.failed) / r.ops.attempted
                    : 1.0);
    for (const std::string &e : r.ops.errors)
        std::printf("  FAILED: %s\n", e.c_str());

    std::vector<Metric> metrics;
    if (correct) {
        const std::vector<Metric> e2e = endToEnd(r, u);
        printMetrics(trace ? "end-to-end (traced run; compare with an "
                             "untraced run for the tracing overhead):"
                           : "end-to-end:",
                     e2e);
        metrics = e2e;
        if (trace) {
            writeTrace(r, outdir, stem);
            metrics = perLayer(r, u, wall_sec);
            printMetrics("per-layer:", metrics);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.ops.attempted),
                static_cast<unsigned long long>(r.ops.failed),
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
