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
 * Tasks run on the process-wide executor (common/executor); a
 * RecordingCache (sim/recording_cache) deduplicates identical initial
 * executions across a campaign's jobs.
 *
 * Campaign throughput (wall-clock, simulated cycles/sec and
 * instructions/sec) is reported through CampaignReport and merged
 * into BENCH_campaign.json, the cross-PR performance ledger.
 */

#ifndef DELOREAN_SIM_CAMPAIGN_HPP_
#define DELOREAN_SIM_CAMPAIGN_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/executor.hpp"
#include "sim/recording_cache.hpp"

namespace delorean
{

/** Campaign fan-out with deterministic, index-keyed results. */
class CampaignRunner
{
  public:
    /** @param jobs batch width; 0 uses defaultJobs(). */
    explicit CampaignRunner(unsigned jobs = 0)
        : jobs_(jobs ? jobs : defaultJobs())
    {
    }

    unsigned jobs() const { return jobs_; }

    /**
     * Execute every task on the executor, at most jobs() at a time.
     * Tasks run in any order; call-site result slots (captured by
     * index) make the outcome order-independent. Every task runs at
     * every width, even after one throws; the lowest-index task's
     * exception is rethrown here after the batch drains.
     */
    void
    run(std::vector<std::function<void()>> tasks) const
    {
        Executor::run(tasks, jobs_);
    }

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

/** Throughput accounting for one harness campaign. */
struct CampaignReport
{
    std::string harness;
    unsigned jobs = 1;            ///< campaign width used
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
