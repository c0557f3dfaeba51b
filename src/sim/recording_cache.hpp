/**
 * @file
 * Recording cache: deduplicates identical initial executions, keyed
 * on (workload, seed, scale, machine, mode, environment), for
 * campaigns and serve sessions.
 */

#ifndef DELOREAN_SIM_RECORDING_CACHE_HPP_
#define DELOREAN_SIM_RECORDING_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "core/recording.hpp"

namespace delorean
{

/** Everything that identifies one initial execution (record run). */
struct RecordJob
{
    std::string app;               ///< AppTable application name
    std::uint64_t workloadSeed = 0;
    unsigned scalePercent = 100;   ///< WorkloadScale::iterationsPercent
    MachineConfig machine;
    ModeConfig mode;
    std::uint64_t envSeed = 1;
    bool logging = true;           ///< false = plain BulkSC machine
};

/** Cache key covering every architectural input of a RecordJob. */
std::string recordJobKey(const RecordJob &job);

/**
 * Per-campaign recording cache. Thread-safe; each distinct key is
 * recorded exactly once, concurrent requesters wait for the result.
 * References stay valid for the cache's lifetime.
 */
class RecordingCache
{
  public:
    /**
     * Return the recording for @p job, running the initial execution
     * on first use. @p fresh (optional) reports whether this call did
     * the recording — callers accounting simulated work should only
     * count fresh results.
     */
    const Recording &record(const RecordJob &job, bool *fresh = nullptr);

    /**
     * record() with a caller-supplied initial execution: @p run is
     * invoked (exactly once per distinct key, under the entry lock)
     * to produce the recording. This is how the streaming service
     * records with a checkpoint period and an incremental archive
     * hook while still deduplicating identical sessions: the functor
     * runs only on the first request for a key; every later request
     * (and every concurrent one, once the entry lock releases) gets
     * the cached recording and @p fresh = false. The functor must
     * produce a recording determined by @p job alone.
     */
    const Recording &
    recordWith(const RecordJob &job,
               const std::function<Recording()> &run,
               bool *fresh = nullptr);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

  private:
    struct Entry
    {
        std::mutex mu;
        bool done = false;
        Recording rec;
    };

    std::mutex mu_;
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace delorean

#endif // DELOREAN_SIM_RECORDING_CACHE_HPP_
