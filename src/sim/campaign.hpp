/**
 * @file
 * Campaign runner: fans independent simulation jobs across host cores.
 *
 * Every figure/table harness runs an (application x mode x scale)
 * grid of ChunkEngine record/replay jobs. Each job is an independent
 * single-threaded discrete-event simulation, so a campaign is
 * embarrassingly parallel — but the *output* must not depend on how
 * the host schedules it. The runner therefore keys every result by
 * job index, not completion order: slot i of the result vector is
 * always filled by job i, making harness output bit-identical at any
 * worker count (`DELOREAN_JOBS=1` and `=64` print the same bytes).
 *
 * A per-campaign RecordingCache deduplicates identical initial
 * executions — keyed on (workload, seed, scale, machine, mode,
 * environment) — so harnesses that record once and replay/measure
 * many variants stop re-recording the same execution. Concurrent
 * requests for one key block on a per-entry mutex and the recording
 * runs exactly once.
 *
 * Campaign throughput (wall-clock, simulated cycles/sec and
 * instructions/sec) is reported through CampaignReport and merged
 * into BENCH_campaign.json, the cross-PR performance ledger.
 */

#ifndef DELOREAN_SIM_CAMPAIGN_HPP_
#define DELOREAN_SIM_CAMPAIGN_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "core/recording.hpp"

namespace delorean
{

/**
 * Worker count for campaigns: the DELOREAN_JOBS environment variable
 * if set to a positive integer, otherwise the host's hardware
 * concurrency (at least 1).
 */
unsigned campaignJobs();

/** Thread-pool executor with deterministic, index-keyed results. */
class CampaignRunner
{
  public:
    /** @param jobs worker count; 0 uses campaignJobs(). */
    explicit CampaignRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Execute every task on a WorkerPool of min(jobs, tasks) workers
     * built for this call. Tasks run in any order; call-site result
     * slots (captured by index) make the outcome order-independent.
     * Every task runs at every width, even after one throws; the
     * first exception thrown by a task is rethrown here after the
     * batch drains.
     */
    void run(std::vector<std::function<void()>> tasks) const;

    /** run() wrapper collecting each task's return value by index. */
    template <typename R>
    std::vector<R>
    map(std::vector<std::function<R()>> tasks) const
    {
        std::vector<R> results(tasks.size());
        std::vector<std::function<void()>> wrapped;
        wrapped.reserve(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            wrapped.push_back(
                [&results, &tasks, i] { results[i] = tasks[i](); });
        }
        run(std::move(wrapped));
        return results;
    }

  private:
    unsigned jobs_;
};

/**
 * The campaign executor: a fixed set of worker threads executing
 * batches of index-keyed tasks. CampaignRunner builds one per run()
 * call, which is fine for campaigns whose tasks last seconds;
 * schedulers that dispatch thousands of small batches (the
 * chunk-parallel replayer's per-wave fan-out) keep one alive between
 * batches. Results are index-keyed, so batch outcomes are independent
 * of worker count; every task of a batch runs, and the first
 * exception the batch raises is rethrown from runBatch() after the
 * batch drains. With one job the pool spawns no threads and
 * runBatch() runs inline on the caller.
 */
class WorkerPool
{
  public:
    /** @param jobs worker count; 0 uses campaignJobs(). */
    explicit WorkerPool(unsigned jobs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Execute every task in @p tasks, fanning across the pool's
     * workers (the caller participates). Blocks until the batch
     * drains; rethrows the first task exception.
     */
    void runBatch(std::vector<std::function<void()>> &tasks);

  private:
    void workerLoop();
    void drainFrom(std::vector<std::function<void()>> *tasks,
                   std::size_t size, std::size_t first);

    unsigned jobs_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::function<void()>> *batch_ = nullptr;
    std::uint64_t generation_ = 0;
    std::size_t completed_ = 0;
    bool stop_ = false;
    std::atomic<std::size_t> next_{0};
    std::exception_ptr first_error_;
};

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

/** Throughput accounting for one harness campaign. */
struct CampaignReport
{
    std::string harness;
    unsigned jobs = 1;            ///< worker-pool width used
    std::uint64_t jobCount = 0;   ///< tasks executed
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;  ///< simulated cycles across all runs
    std::uint64_t simInstrs = 0;  ///< generated instructions, ditto
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    double
    simCyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simCycles) / wallSeconds
                   : 0.0;
    }

    double
    simInstrsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simInstrs) / wallSeconds
                   : 0.0;
    }
};

/**
 * Report destination: the DELOREAN_BENCH_JSON environment variable if
 * set, else "BENCH_campaign.json" in the working directory.
 */
std::string campaignReportPath();

/**
 * Merge @p report into the JSON object at @p path (one key per
 * harness; an existing entry for the same harness is replaced, other
 * harnesses' entries are preserved). An unreadable or malformed file
 * is replaced wholesale.
 */
void writeCampaignReport(const CampaignReport &report,
                         const std::string &path = campaignReportPath());

} // namespace delorean

#endif // DELOREAN_SIM_CAMPAIGN_HPP_
