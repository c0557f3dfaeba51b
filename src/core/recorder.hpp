/**
 * @file
 * Recorder / Replayer facades: the public entry points of DeLorean.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   Workload w("radix", 8, seed);
 *   Recorder recorder(ModeConfig::orderOnly());
 *   Recording rec = recorder.record(w, env_seed);
 *
 *   Replayer replayer;
 *   ReplayOutcome out = replayer.replay(rec, different_env_seed);
 *   assert(out.deterministicExact);
 */

#ifndef DELOREAN_CORE_RECORDER_HPP_
#define DELOREAN_CORE_RECORDER_HPP_

#include "common/config.hpp"
#include "core/engine.hpp"
#include "core/recording.hpp"
#include "trace/workload.hpp"

namespace delorean
{

/** Records chunked executions under a given mode configuration. */
class Recorder
{
  public:
    explicit Recorder(const ModeConfig &mode,
                      const MachineConfig &machine = MachineConfig{})
        : mode_(mode), machine_(machine)
    {
    }

    /**
     * Record one initial execution of @p workload.
     * @param env_seed environment (device/noise) randomness
     * @param logging false runs the plain BulkSC machine (no logs)
     * @param checkpoint_gccs take a SystemCheckpoint at each of these
     *        global commit counts (ascending), for interval replay
     * @param checkpoint_period additionally checkpoint every this many
     *        global commits (0 = off) — the archive segment period
     * @param on_checkpoint segment-flush hook, fired on the recording
     *        thread after every checkpoint with the in-progress
     *        recording (EngineOptions::onCheckpoint) — this is how a
     *        StreamingArchiveWriter or RingArchiveWriter overlaps
     *        segment compression and I/O with the rest of the
     *        simulation
     */
    Recording
    record(const Workload &workload, std::uint64_t env_seed,
           bool logging = true,
           std::vector<std::uint64_t> checkpoint_gccs = {},
           std::uint64_t checkpoint_period = 0,
           std::function<void(const Recording &)> on_checkpoint = {}) const
    {
        EngineOptions opts;
        opts.replay = false;
        opts.logging = logging;
        opts.envSeed = env_seed;
        opts.checkpointGccs = std::move(checkpoint_gccs);
        opts.checkpointPeriod = checkpoint_period;
        opts.onCheckpoint = std::move(on_checkpoint);
        ChunkEngine engine(workload, machine_, mode_, opts);
        Recording rec = engine.record();
        rec.iterationsPercent = workload.iterationsPercent();
        return rec;
    }

    const ModeConfig &mode() const { return mode_; }
    const MachineConfig &machine() const { return machine_; }

  private:
    ModeConfig mode_;
    MachineConfig machine_;
};

/** Replays recordings, optionally under timing perturbation. */
class Replayer
{
  public:
    /**
     * Replay @p recording. The workload is reconstructed from the
     * recording's metadata; @p env_seed seeds the (non-architectural)
     * environment so replay timing differs from the initial run.
     * @p replay_window sets EngineOptions::replayWindow — commit
     * slots the replay arbiter may overlap (1 = serial replay).
     */
    ReplayOutcome
    replay(const Recording &recording, std::uint64_t env_seed,
           const ReplayPerturbation &perturb = {},
           unsigned replay_window = 1) const
    {
        Workload workload(recording.appName, recording.machine.numProcs,
                          recording.workloadSeed,
                          WorkloadScale{recording.iterationsPercent});
        return replay(recording, workload, env_seed, perturb,
                      replay_window);
    }

    /** Replay with an explicitly provided (matching) workload. */
    ReplayOutcome
    replay(const Recording &recording, const Workload &workload,
           std::uint64_t env_seed,
           const ReplayPerturbation &perturb = {},
           unsigned replay_window = 1) const
    {
        EngineOptions opts;
        opts.replay = true;
        opts.envSeed = env_seed;
        opts.perturb = perturb;
        opts.replayWindow = replay_window;
        ChunkEngine engine(workload, recording.machine, recording.mode,
                           opts);
        return engine.replay(recording);
    }

    /**
     * Interval replay (Appendix B): resume from checkpoint
     * @p checkpoint_index of the recording and replay the interval
     * from that GCC to the end of the recording — or, when @p stop is
     * given, only up to that later checkpoint's GCC. Determinism is
     * checked against the corresponding slice of the recorded
     * fingerprint.
     */
    ReplayOutcome
    replayInterval(const Recording &recording,
                   std::size_t checkpoint_index,
                   const Workload &workload, std::uint64_t env_seed,
                   const ReplayPerturbation &perturb = {},
                   const SystemCheckpoint *stop = nullptr) const
    {
        EngineOptions opts;
        opts.replay = true;
        opts.envSeed = env_seed;
        opts.perturb = perturb;
        opts.startCheckpoint =
            &recording.checkpoints.at(checkpoint_index);
        opts.stopCheckpoint = stop;
        ChunkEngine engine(workload, recording.machine, recording.mode,
                           opts);
        return engine.replay(recording);
    }
};

} // namespace delorean

#endif // DELOREAN_CORE_RECORDER_HPP_
