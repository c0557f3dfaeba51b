#include "sim/recording_cache.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/recorder.hpp"
#include "trace/workload.hpp"

namespace delorean
{

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

} // namespace delorean
