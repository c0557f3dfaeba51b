#include "sim/campaign.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/recorder.hpp"
#include "trace/workload.hpp"

namespace delorean
{

unsigned
campaignJobs()
{
    if (const char *env = std::getenv("DELOREAN_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

CampaignRunner::CampaignRunner(unsigned jobs)
    : jobs_(jobs ? jobs : campaignJobs())
{
}

void
CampaignRunner::run(std::vector<std::function<void()>> tasks) const
{
    if (tasks.empty())
        return;
    WorkerPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs_, tasks.size())));
    pool.runBatch(tasks);
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

WorkerPool::WorkerPool(unsigned jobs)
    : jobs_(jobs ? jobs : campaignJobs())
{
    threads_.reserve(jobs_ > 0 ? jobs_ - 1 : 0);
    for (unsigned t = 0; t + 1 < jobs_; ++t)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

/**
 * Execute tasks [first, size) as claimed from next_. @p size is
 * captured under the pool mutex by every participant, so a worker
 * whose first claim overshoots the batch never touches @p tasks at
 * all (the batch may already be retired by then). A participant with
 * executed-but-unaccounted tasks keeps the batch alive: runBatch()
 * cannot observe completed_ == size until every execution has been
 * accounted, so element access inside the loop is safe.
 */
void
WorkerPool::drainFrom(std::vector<std::function<void()>> *tasks,
                      std::size_t size, std::size_t first)
{
    std::size_t done = 0;
    for (std::size_t i = first; i < size;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
        try {
            (*tasks)[i]();
        } catch (...) {
            std::lock_guard<std::mutex> guard(mu_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
        ++done;
    }
    if (done) {
        std::lock_guard<std::mutex> guard(mu_);
        completed_ += done;
        if (completed_ == size)
            done_cv_.notify_all();
    }
}

void
WorkerPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::vector<std::function<void()>> *tasks = nullptr;
        std::size_t size = 0;
        std::size_t first = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this, seen] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            if (!batch_)
                continue; // batch drained and retired before we woke
            tasks = batch_;
            size = batch_->size();
            // First claim under the lock: batch_ != nullptr here, so
            // the index provably belongs to this batch.
            first = next_.fetch_add(1, std::memory_order_relaxed);
        }
        drainFrom(tasks, size, first);
    }
}

void
WorkerPool::runBatch(std::vector<std::function<void()>> &tasks)
{
    if (tasks.empty())
        return;
    if (threads_.empty()) {
        std::exception_ptr error;
        for (auto &task : tasks) {
            try {
                task();
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    {
        std::lock_guard<std::mutex> guard(mu_);
        batch_ = &tasks;
        completed_ = 0;
        first_error_ = nullptr;
        next_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    work_cv_.notify_all();
    drainFrom(&tasks, tasks.size(),
              next_.fetch_add(1, std::memory_order_relaxed));

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock,
                      [this, &tasks] { return completed_ == tasks.size(); });
        batch_ = nullptr;
        error = first_error_;
        first_error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Recording cache
// ---------------------------------------------------------------------------

namespace
{

void
appendField(std::string &key, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64 "|", v);
    key += buf;
}

} // namespace

std::string
recordJobKey(const RecordJob &job)
{
    std::string key = job.app;
    key += '|';
    appendField(key, job.workloadSeed);
    appendField(key, job.scalePercent);
    appendField(key, job.envSeed);
    appendField(key, job.logging);

    const MachineConfig &m = job.machine;
    appendField(key, m.numProcs);
    appendField(key, static_cast<std::uint64_t>(m.proc.ghz * 1000));
    appendField(key, m.proc.fetchWidth);
    appendField(key, m.proc.issueWidth);
    appendField(key, m.proc.commitWidth);
    appendField(key, m.proc.robSize);
    appendField(key, m.proc.branchPenalty);
    appendField(key, m.proc.branchMissPerMille);
    appendField(key, m.mem.l1SizeBytes);
    appendField(key, m.mem.l1Ways);
    appendField(key, m.mem.l1RoundTrip);
    appendField(key, m.mem.l1Mshrs);
    appendField(key, m.mem.l2SizeBytes);
    appendField(key, m.mem.l2Ways);
    appendField(key, m.mem.l2RoundTrip);
    appendField(key, m.mem.l2Mshrs);
    appendField(key, m.mem.memRoundTrip);
    appendField(key, m.bulk.signatureBits);
    appendField(key, m.bulk.commitArbitration);
    appendField(key, m.bulk.maxConcurrentCommits);
    appendField(key, m.bulk.simultaneousChunks);
    appendField(key, m.bulk.numArbiters);
    appendField(key, m.bulk.numDirectories);
    appendField(key, m.bulk.collisionBackoffThreshold);
    appendField(key, m.bulk.exactDisambiguation);

    const ModeConfig &mode = job.mode;
    appendField(key, static_cast<std::uint64_t>(mode.mode));
    appendField(key, mode.chunkSize);
    appendField(key, mode.varSizeTruncatePercent);
    appendField(key, mode.csDistanceBits);
    appendField(key, mode.csSizeBits);
    appendField(key, mode.piProcIdBits);
    appendField(key, mode.stratifyChunksPerProc);
    return key;
}

const Recording &
RecordingCache::record(const RecordJob &job, bool *fresh)
{
    return recordWith(
        job,
        [&job] {
            const Workload workload(job.app, job.machine.numProcs,
                                    job.workloadSeed,
                                    WorkloadScale{job.scalePercent});
            const Recorder recorder(job.mode, job.machine);
            return recorder.record(workload, job.envSeed, job.logging);
        },
        fresh);
}

const Recording &
RecordingCache::recordWith(const RecordJob &job,
                           const std::function<Recording()> &run,
                           bool *fresh)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = entries_.find(recordJobKey(job));
        if (it == entries_.end()) {
            it = entries_
                     .emplace(recordJobKey(job),
                              std::make_unique<Entry>())
                     .first;
        }
        entry = it->second.get();
    }

    std::lock_guard<std::mutex> guard(entry->mu);
    if (!entry->done) {
        entry->rec = run();
        entry->done = true;
        ++misses_;
        if (fresh)
            *fresh = true;
    } else {
        ++hits_;
        if (fresh)
            *fresh = false;
    }
    return entry->rec;
}

// ---------------------------------------------------------------------------
// BENCH_campaign.json
// ---------------------------------------------------------------------------

std::string
campaignReportPath()
{
    if (const char *env = std::getenv("DELOREAN_BENCH_JSON"))
        if (*env)
            return env;
    return "BENCH_campaign.json";
}

namespace
{

/**
 * Parse the top level of `{ "key": <value>, ... }` into (key, raw
 * value text) pairs, preserving order. Values are captured verbatim
 * (objects by brace matching, respecting strings). Returns false on
 * anything unexpected, in which case the caller starts fresh.
 */
bool
parseTopLevel(const std::string &text,
              std::vector<std::pair<std::string, std::string>> &out)
{
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < text.size()
               && std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
    };

    skipWs();
    if (i >= text.size() || text[i] != '{')
        return false;
    ++i;
    for (;;) {
        skipWs();
        if (i >= text.size())
            return false;
        if (text[i] == '}')
            return true;
        if (text[i] != '"')
            return false;
        ++i;
        std::string key;
        while (i < text.size() && text[i] != '"') {
            if (text[i] == '\\')
                return false; // escaped keys: not ours, start fresh
            key += text[i++];
        }
        if (i >= text.size())
            return false;
        ++i; // closing quote
        skipWs();
        if (i >= text.size() || text[i] != ':')
            return false;
        ++i;
        skipWs();
        if (i >= text.size() || text[i] != '{')
            return false;
        const std::size_t start = i;
        int depth = 0;
        bool in_string = false;
        for (; i < text.size(); ++i) {
            const char c = text[i];
            if (in_string) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_string = false;
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}') {
                if (--depth == 0) {
                    ++i;
                    break;
                }
            }
        }
        if (depth != 0)
            return false;
        out.emplace_back(key, text.substr(start, i - start));
        skipWs();
        if (i < text.size() && text[i] == ',')
            ++i;
    }
}

std::string
formatEntry(const CampaignReport &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "    \"jobs\": %u,\n"
                  "    \"job_count\": %" PRIu64 ",\n"
                  "    \"wall_seconds\": %.3f,\n"
                  "    \"sim_cycles\": %" PRIu64 ",\n"
                  "    \"sim_instrs\": %" PRIu64 ",\n"
                  "    \"sim_cycles_per_sec\": %.0f,\n"
                  "    \"sim_instrs_per_sec\": %.0f,\n"
                  "    \"cache_hits\": %" PRIu64 ",\n"
                  "    \"cache_misses\": %" PRIu64 "\n"
                  "  }",
                  r.jobs, r.jobCount, r.wallSeconds, r.simCycles,
                  r.simInstrs, r.simCyclesPerSecond(),
                  r.simInstrsPerSecond(), r.cacheHits, r.cacheMisses);
    return buf;
}

} // namespace

void
writeCampaignReport(const CampaignReport &report, const std::string &path)
{
    std::vector<std::pair<std::string, std::string>> entries;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            std::vector<std::pair<std::string, std::string>> parsed;
            if (parseTopLevel(ss.str(), parsed))
                entries = std::move(parsed);
        }
    }

    const std::string value = formatEntry(report);
    bool replaced = false;
    for (auto &[key, raw] : entries) {
        if (key == report.harness) {
            raw = value;
            replaced = true;
            break;
        }
    }
    if (!replaced)
        entries.emplace_back(report.harness, value);

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return; // reporting must never fail a harness
    out << "{\n";
    for (std::size_t k = 0; k < entries.size(); ++k) {
        out << "  \"" << entries[k].first << "\": " << entries[k].second
            << (k + 1 < entries.size() ? ",\n" : "\n");
    }
    out << "}\n";
}

} // namespace delorean
