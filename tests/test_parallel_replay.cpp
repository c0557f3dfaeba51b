/**
 * @file
 * Chunk-parallel replay tests: serial vs. parallel fingerprint
 * equality for both parallel paths (the lookahead-window arbiter and
 * the host-parallel chunk-body replayer) across all modes, window
 * sizes and worker counts, interval-fingerprint byte-identity,
 * fault-report parity, and the window-scaled livelock budget.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/delorean.hpp"
#include "sim/parallel_replay.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{
namespace
{

MachineConfig
machine(unsigned procs = 4)
{
    MachineConfig m;
    m.numProcs = procs;
    return m;
}

/** The four (mode, PI-flavor) configurations under test. */
std::vector<std::pair<std::string, ModeConfig>>
allConfigs()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    return {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", strat},
        {"picolog", ModeConfig::picoLog()},
    };
}

Recording
recordOne(const ModeConfig &mode, const char *app = "fft")
{
    Workload w(app, 4, 7, WorkloadScale::tiny());
    return Recorder(mode, machine()).record(w, 1);
}

/// Fingerprint comparison rule: exact for flat logs, per-processor
/// streams for stratified ones (global interleaving legally relaxed).
bool
fingerprintsAgree(const Recording &rec, const ExecutionFingerprint &a,
                  const ExecutionFingerprint &b)
{
    return rec.stratified() ? a.matchesPerProc(b) : a.matchesExact(b);
}

/// Per-boundary interval fingerprints are byte-identical (prefix
/// hashes equal at every period boundary), per-proc when stratified.
bool
intervalsAgree(const Recording &rec, const ExecutionFingerprint &a,
               const ExecutionFingerprint &b, std::uint64_t period = 16)
{
    const auto prefixes = [period](const ExecutionFingerprint &fp) {
        return IntervalFingerprints::build(fp, period).prefixes;
    };
    if (!rec.stratified())
        return prefixes(a) == prefixes(b);
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        ExecutionFingerprint pa, pb;
        pa.commits = a.procStream(p);
        pb.commits = b.procStream(p);
        if (prefixes(pa) != prefixes(pb))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Lookahead-window arbiter (engine replay, replayWindow > 1)
// ---------------------------------------------------------------------

TEST(ParallelReplay, WindowedArbiterMatchesSerialAllModesAllWindows)
{
    for (const auto &[label, mode] : allConfigs()) {
        const Recording rec = recordOne(mode);

        ReplayCheckOptions serial_opts;
        const ReplayCheckResult serial = checkedReplay(rec, serial_opts);
        ASSERT_TRUE(serial.ok) << label;

        for (const unsigned window : {1u, 2u, 8u}) {
            ReplayCheckOptions opts;
            opts.replayWindow = window;
            const ReplayCheckResult out = checkedReplay(rec, opts);
            ASSERT_TRUE(out.ok)
                << label << " window " << window << ": "
                << out.report.describe();
            EXPECT_TRUE(fingerprintsAgree(rec, out.outcome.fingerprint,
                                          serial.outcome.fingerprint))
                << label << " window " << window;
            EXPECT_TRUE(intervalsAgree(rec, out.outcome.fingerprint,
                                       serial.outcome.fingerprint))
                << label << " window " << window;
        }
    }
}

TEST(ParallelReplay, WindowedArbiterFillsOverlapCounters)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    ReplayCheckOptions opts;
    opts.replayWindow = 8;
    const ReplayCheckResult out = checkedReplay(rec, opts);
    ASSERT_TRUE(out.ok);
    const EngineStats &stats = out.outcome.stats;
    EXPECT_GT(stats.replayWindowOccupancy.count(), 0u);
    EXPECT_GE(stats.replayWindowOccupancy.min(), 1.0);
    EXPECT_LE(stats.replayWindowOccupancy.max(), 8.0);
}

TEST(ParallelReplay, StratifiedWindowedReplayCountsRelaxedRetires)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    const Recording rec = recordOne(strat);
    ReplayCheckOptions opts;
    opts.replayWindow = 8;
    const ReplayCheckResult out = checkedReplay(rec, opts);
    ASSERT_TRUE(out.ok);
    // Every strata-relaxed retire is a retire; the counter can never
    // exceed the number of committed chunks.
    EXPECT_LE(out.outcome.stats.strataRelaxedRetires,
              out.outcome.stats.committedChunks);
}

// ---------------------------------------------------------------------
// Host-parallel chunk-body replayer
// ---------------------------------------------------------------------

TEST(ParallelReplay, ChunkParallelMatchesSerialAcrossJobsAndWindows)
{
    for (const auto &[label, mode] : allConfigs()) {
        const Recording rec = recordOne(mode);

        const ReplayCheckResult serial = checkedReplay(rec, {});
        ASSERT_TRUE(serial.ok) << label;

        for (const unsigned jobs : {1u, 2u, 4u}) {
            for (const unsigned window : {1u, 2u, 8u}) {
                ParallelReplayOptions popts;
                popts.jobs = jobs;
                popts.window = window;
                const ReplayCheckResult par =
                    checkedParallelReplay(rec, popts);
                ASSERT_TRUE(par.ok)
                    << label << " jobs " << jobs << " window " << window
                    << ": " << par.report.describe();
                EXPECT_TRUE(fingerprintsAgree(
                    rec, par.outcome.fingerprint,
                    serial.outcome.fingerprint))
                    << label << " jobs " << jobs << " window " << window;
                EXPECT_TRUE(intervalsAgree(rec, par.outcome.fingerprint,
                                           serial.outcome.fingerprint))
                    << label << " jobs " << jobs << " window " << window;
            }
        }
    }
}

TEST(ParallelReplay, ChunkParallelReplaysIoHeavyApp)
{
    // sweb2005 exercises the I/O log; replaying with a different
    // worker count must not change which logged value each load sees.
    Workload w("sweb2005", 4, 7, WorkloadScale{30});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    ASSERT_GT(rec.io.totalEntries(), 0u);

    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    EXPECT_TRUE(par.ok) << par.report.describe();
}

TEST(ParallelReplay, ChunkParallelStatsAccountForAllRetiredWork)
{
    const Recording rec = recordOne(ModeConfig::orderAndSize());
    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_TRUE(par.ok);
    const EngineStats &stats = par.outcome.stats;
    EXPECT_EQ(stats.committedChunks, rec.fingerprint.commits.size());
    // Speculative execution may run more instructions than retire
    // (squash re-executions), never fewer.
    EXPECT_GE(stats.executedInstrs, stats.retiredInstrs);
    EXPECT_GT(stats.replayWindowOccupancy.count(), 0u);
    EXPECT_LE(stats.replayWindowOccupancy.max(), 8.0);
}

// ---------------------------------------------------------------------
// Fault parity: a corrupted recording produces the same structured
// divergence report from serial and parallel replay.
// ---------------------------------------------------------------------

TEST(ParallelReplay, FaultInjectedReplayReportsSameChunkAsSerial)
{
    Workload w("sweb2005", 4, 7, WorkloadScale{30});
    Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    ProcId victim = kDmaProcId;
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        if (rec.io.countFor(p) > 0) {
            victim = p;
            break;
        }
    }
    ASSERT_NE(victim, kDmaProcId) << "no proc logged any I/O";

    // Flip one logged I/O value: replay still runs to completion but
    // the architectural execution diverges from the recorded one.
    const std::uint64_t idx = rec.io.countFor(victim) / 2;
    rec.io.append(victim, idx, rec.io.valueAt(victim, idx) ^ 0xBEEF);

    const ReplayCheckResult serial = checkedReplay(rec, {});
    ASSERT_FALSE(serial.ok);
    ASSERT_TRUE(serial.replayRan);

    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_FALSE(par.ok);
    ASSERT_TRUE(par.replayRan);

    // Same structured report: kind, first divergent chunk, processor.
    EXPECT_EQ(par.report.kind, serial.report.kind);
    EXPECT_EQ(par.report.commitIndex, serial.report.commitIndex);
    EXPECT_EQ(par.report.proc, serial.report.proc);
    // And both replayed the same (divergent) execution.
    EXPECT_TRUE(par.outcome.fingerprint.matchesExact(
        serial.outcome.fingerprint));
}

// ---------------------------------------------------------------------
// Livelock budget scales with the window
// ---------------------------------------------------------------------

TEST(ParallelReplay, EventBudgetScalesLinearlyWithWindow)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    const std::uint64_t w1 = defaultReplayEventBudget(rec, 1);
    const std::uint64_t w2 = defaultReplayEventBudget(rec, 2);
    const std::uint64_t w8 = defaultReplayEventBudget(rec, 8);
    EXPECT_EQ(defaultReplayEventBudget(rec), w1);
    EXPECT_EQ(w2, 2 * w1);
    EXPECT_EQ(w8, 8 * w1);
    // Still capped by the global safety valve.
    EXPECT_LE(w8, 2'000'000'000ull);
}

TEST(ParallelReplay, StalledWindowedReplayFailsPromptly)
{
    // A replay that cannot finish within its budget must fail with a
    // typed report at window 8 exactly as it does serially — the
    // scaled budget keeps "promptly" independent of the window.
    const Recording rec = recordOne(ModeConfig::orderOnly());
    for (const unsigned window : {1u, 8u}) {
        ReplayCheckOptions opts;
        opts.replayWindow = window;
        opts.maxEvents = 50; // far below any healthy replay
        const ReplayCheckResult out = checkedReplay(rec, opts);
        EXPECT_FALSE(out.ok) << "window " << window;
        EXPECT_FALSE(out.replayRan) << "window " << window;
        EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError)
            << "window " << window;
    }
}

TEST(ParallelReplay, ChunkParallelInstrBudgetFences)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    ParallelReplayOptions popts;
    popts.jobs = 2;
    popts.window = 8;
    popts.maxInstrs = 10; // far below the recorded instruction count
    const ReplayCheckResult out = checkedParallelReplay(rec, popts);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.replayRan);
    EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError);
}

TEST(ParallelReplay, DefaultInstrBudgetCoversRecordedWork)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    std::uint64_t recorded = 0;
    for (const CommitRecord &c : rec.fingerprint.commits)
        recorded += c.size;
    const std::uint64_t budget = defaultParallelReplayInstrBudget(rec);
    EXPECT_GE(budget, 4 * recorded);
    EXPECT_GT(budget, 0u);
}

} // namespace
} // namespace delorean
