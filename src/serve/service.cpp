#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <istream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include <sys/stat.h>
#include <sys/types.h>

#include "core/recorder.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{

namespace
{

/** Stable short name for archive files and the ledger. */
std::string
fnv1aHex(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Mode label for the ledger: exec mode plus the stratification. */
std::string
serveModeLabel(const ModeConfig &mode)
{
    std::string label = execModeName(mode.mode);
    if (mode.stratifyChunksPerProc)
        label += "/strat" + std::to_string(mode.stratifyChunksPerProc);
    return label;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

/**
 * Counting-semaphore admission gate. Workers acquire a slot before
 * touching any session resources and release it when the session
 * completes; the high-water mark is reported for observability.
 */
class Gate
{
  public:
    explicit Gate(unsigned capacity) : capacity_(capacity) {}

    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return inflight_ < capacity_; });
        ++inflight_;
        peak_ = std::max(peak_, inflight_);
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            --inflight_;
        }
        cv_.notify_one();
    }

    unsigned
    peak()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return peak_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned capacity_;
    unsigned inflight_ = 0;
    unsigned peak_ = 0;
};

struct GateHold
{
    explicit GateHold(Gate &gate) : gate_(gate) { gate_.acquire(); }
    ~GateHold() { gate_.release(); }
    GateHold(const GateHold &) = delete;
    GateHold &operator=(const GateHold &) = delete;
    Gate &gate_;
};

} // namespace

const char *
serveClassName(ServeClass cls)
{
    switch (cls) {
    case ServeClass::kRecord:
        return "record";
    case ServeClass::kReplay:
        return "replay";
    case ServeClass::kValidate:
        return "validate";
    }
    return "unknown";
}

// ----- job parsing ----------------------------------------------------------

bool
parseServeJob(const std::string &line, ServeJob &job, std::string &error)
{
    error.clear();
    std::istringstream in(line);
    std::string cls;
    in >> cls;
    if (cls.empty() || cls[0] == '#')
        return false; // blank or comment line; no error

    ServeJob parsed;
    if (cls == "record")
        parsed.cls = ServeClass::kRecord;
    else if (cls == "replay")
        parsed.cls = ServeClass::kReplay;
    else if (cls == "validate")
        parsed.cls = ServeClass::kValidate;
    else {
        error = "unknown session class \"" + cls + "\"";
        return false;
    }

    bool have_app = false;
    std::string mode_name = "ordersize";
    unsigned strat = 4;
    std::string tok;
    while (in >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0
            || eq + 1 == tok.size()) {
            error = "malformed field \"" + tok
                    + "\" (expected key=value)";
            return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        const auto number = [&](std::uint64_t &out_v) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') {
                error = "field " + key + " needs a number, got \""
                        + value + "\"";
                return false;
            }
            out_v = v;
            return true;
        };
        std::uint64_t v = 0;
        if (key == "app") {
            parsed.record.app = value;
            have_app = true;
        } else if (key == "seed") {
            if (!number(v))
                return false;
            parsed.record.workloadSeed = v;
        } else if (key == "scale") {
            if (!number(v))
                return false;
            parsed.record.scalePercent = static_cast<unsigned>(v);
        } else if (key == "procs") {
            if (!number(v))
                return false;
            parsed.record.machine.numProcs =
                static_cast<unsigned>(v);
        } else if (key == "mode") {
            mode_name = value;
        } else if (key == "strat") {
            if (!number(v))
                return false;
            strat = static_cast<unsigned>(v);
        } else if (key == "env") {
            if (!number(v))
                return false;
            parsed.record.envSeed = v;
        } else if (key == "renv") {
            if (!number(v))
                return false;
            parsed.replayEnvSeed = v;
        } else if (key == "window") {
            if (!number(v))
                return false;
            parsed.replayWindow = static_cast<unsigned>(v);
        } else {
            error = "unknown field \"" + key + "\"";
            return false;
        }
    }
    if (!have_app) {
        error = "missing required field app=";
        return false;
    }

    if (mode_name == "ordersize") {
        parsed.record.mode = ModeConfig::orderAndSize();
    } else if (mode_name == "orderonly") {
        parsed.record.mode = ModeConfig::orderOnly();
    } else if (mode_name == "stratified") {
        parsed.record.mode = ModeConfig::orderOnly();
        parsed.record.mode.stratifyChunksPerProc = strat;
    } else if (mode_name == "picolog") {
        parsed.record.mode = ModeConfig::picoLog();
    } else {
        error = "unknown mode \"" + mode_name + "\"";
        return false;
    }

    job = std::move(parsed);
    return true;
}

std::vector<ServeJob>
parseServeJobs(std::istream &in)
{
    std::vector<ServeJob> jobs;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        ServeJob job;
        std::string error;
        if (parseServeJob(line, job, error))
            jobs.push_back(std::move(job));
        else if (!error.empty())
            throw std::runtime_error("job line "
                                     + std::to_string(lineno) + ": "
                                     + error);
    }
    return jobs;
}

std::vector<std::size_t>
serveDispatchOrder(const std::vector<ServeJob> &jobs)
{
    constexpr unsigned kClasses = 3;
    std::vector<std::vector<std::size_t>> queues(kClasses);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        queues[static_cast<unsigned>(jobs[i].cls)].push_back(i);
    std::vector<std::size_t> order;
    order.reserve(jobs.size());
    std::vector<std::size_t> heads(kClasses, 0);
    while (order.size() < jobs.size())
        for (unsigned c = 0; c < kClasses; ++c)
            if (heads[c] < queues[c].size())
                order.push_back(queues[c][heads[c]++]);
    return order;
}

// ----- report ---------------------------------------------------------------

std::uint64_t
ServeReport::okCount() const
{
    std::uint64_t ok = 0;
    for (const ServeSessionResult &r : sessions)
        ok += r.ok ? 1 : 0;
    return ok;
}

std::uint64_t
ServeReport::archiveBytesTotal() const
{
    std::uint64_t bytes = 0;
    for (const ServeRecordingInfo &r : recordings)
        bytes += r.archiveBytes;
    return bytes;
}

std::string
ServeReport::ledgerJson(bool include_throughput) const
{
    std::string out = "{\n  \"harness\": \"delorean_serve\",\n";
    out += "  \"sessions\": " + std::to_string(sessions.size()) + ",\n";
    out += "  \"ok\": " + std::to_string(okCount()) + ",\n";
    out += "  \"cache_hits\": " + std::to_string(cacheHits) + ",\n";
    out += "  \"cache_misses\": " + std::to_string(cacheMisses) + ",\n";
    out += "  \"session\": [";
    // One line per session, submission order. No per-session "fresh"
    // or timing: which session recorded is scheduling-dependent.
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const ServeSessionResult &r = sessions[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"ok\": ";
        out += r.ok ? "true" : "false";
        out += ", \"error\": \"";
        appendEscaped(out, r.error);
        out += "\"}";
    }
    out += "\n  ],\n";
    out += "  \"recordings\": [";
    for (std::size_t i = 0; i < recordings.size(); ++i) {
        const ServeRecordingInfo &r = recordings[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"id\": \"" + fnv1aHex(r.key) + "\", \"app\": \"";
        appendEscaped(out, r.app);
        out += "\", \"mode\": \"";
        appendEscaped(out, r.modeName);
        out += "\", \"sessions\": " + std::to_string(r.sessions);
        out += ", \"archived\": ";
        out += r.archivePath.empty() ? "false" : "true";
        out += ", \"archive_bytes\": "
               + std::to_string(r.archiveBytes);
        out += ", \"archive_segments\": "
               + std::to_string(r.archiveSegments);
        // Ring counters are deterministic (eviction depends only on
        // segment sizes and the budget), so they belong in the
        // worker-count-invariant ledger.
        out += ", \"ring\": ";
        out += r.ringPath.empty() ? "false" : "true";
        out += ", \"ring_bytes\": " + std::to_string(r.ringBytes);
        out += ", \"ring_segments\": "
               + std::to_string(r.ringSegments);
        out += ", \"ring_evicted\": " + std::to_string(r.ringEvicted);
        out += "}";
    }
    out += "\n  ]";
    if (include_throughput) {
        char buf[256];
        const double wall = wallSeconds > 0.0 ? wallSeconds : 1e-9;
        std::snprintf(
            buf, sizeof buf,
            ",\n  \"throughput\": {\n"
            "    \"jobs\": %u,\n"
            "    \"max_inflight\": %u,\n"
            "    \"peak_inflight\": %u,\n"
            "    \"wall_seconds\": %.6g,\n"
            "    \"sessions_per_second\": %.6g,\n"
            "    \"archive_mb_per_second\": %.6g\n  }",
            jobs, maxInflight, peakInflight, wallSeconds,
            static_cast<double>(sessions.size()) / wall,
            static_cast<double>(archiveBytesTotal()) / 1e6 / wall);
        out += buf;
    }
    out += "\n}\n";
    return out;
}

// ----- service --------------------------------------------------------------

ServeService::ServeService(const ServeOptions &opts) : opts_(opts) {}

ServeReport
ServeService::run(const std::vector<ServeJob> &jobs)
{
    const auto start = std::chrono::steady_clock::now();
    const unsigned width = opts_.jobs ? opts_.jobs : campaignJobs();
    const unsigned inflight =
        opts_.maxInflight ? opts_.maxInflight : width;

    // Best-effort; the per-archive open reports a usable error when
    // the directory is still missing. (Each ring writer creates its
    // own per-recording directory under ringDir.)
    if (!opts_.archiveDir.empty())
        ::mkdir(opts_.archiveDir.c_str(), 0755);
    if (!opts_.ringDir.empty())
        ::mkdir(opts_.ringDir.c_str(), 0755);

    ServeReport report;
    report.sessions.resize(jobs.size());
    report.jobs = width;
    report.maxInflight = inflight;

    RecordingCache cache;
    Gate gate(inflight);
    std::mutex info_mu; // guards infos + progress stream
    std::map<std::string, ServeRecordingInfo> infos;
    std::size_t completed = 0;

    /**
     * Resolve a session's recording through the cache; the first
     * session for a key records with the segment-period checkpoint
     * cadence and streams the enabled containers — the .dla archive
     * and/or the always-on ring — while the simulation runs, both fed
     * from the same engine checkpoint hook.
     */
    const auto ensure_recorded = [&](const RecordJob &rj,
                                     bool *fresh) -> const Recording & {
        return cache.recordWith(
            rj,
            [&]() -> Recording {
                const Workload workload(
                    rj.app, rj.machine.numProcs, rj.workloadSeed,
                    WorkloadScale{rj.scalePercent});
                const Recorder recorder(rj.mode, rj.machine);
                const std::string key = recordJobKey(rj);

                std::string ring_path;
                std::unique_ptr<RingArchiveWriter> ring;
                if (!opts_.ringDir.empty()) {
                    RingOptions ropts;
                    ropts.budgetBytes = opts_.ringBudgetBytes;
                    ropts.checkpointPeriod = opts_.checkpointPeriod;
                    ropts.maxReplayLag = opts_.ringMaxReplayLag;
                    ropts.io = opts_.archiveIo;
                    ring_path = opts_.ringDir + "/" + fnv1aHex(key)
                                + ".ring";
                    ring = std::make_unique<RingArchiveWriter>(
                        ring_path, ropts);
                }

                std::string path, tmp;
                std::ofstream out;
                std::unique_ptr<StreamingArchiveWriter> writer;
                if (!opts_.archiveDir.empty()) {
                    path = opts_.archiveDir + "/" + fnv1aHex(key)
                           + ".dla";
                    tmp = path + ".tmp";
                    out.open(tmp, std::ios::binary);
                    if (!out)
                        throw std::runtime_error("cannot open " + tmp
                                                 + " for write");
                    writer = std::make_unique<StreamingArchiveWriter>(
                        out, opts_.archiveIo);
                }

                std::function<void(const Recording &)> hook;
                if (writer || ring)
                    hook = [&writer, &ring](const Recording &r) {
                        if (writer)
                            writer->onCheckpoint(r);
                        if (ring)
                            ring->onCheckpoint(r);
                    };
                Recording rec = recorder.record(
                    workload, rj.envSeed, rj.logging, {},
                    opts_.checkpointPeriod, std::move(hook));

                if (ring) {
                    ring->close(rec);
                    const RingWriterStats rs = ring->stats();
                    std::lock_guard<std::mutex> lock(info_mu);
                    ServeRecordingInfo &info = infos[key];
                    info.ringBytes = rs.liveBytes;
                    info.ringSegments = rs.segmentsCut;
                    info.ringEvicted = rs.segmentsEvicted;
                    info.ringPath = ring_path;
                }
                if (!writer)
                    return rec;

                writer->close(rec);
                const std::uint64_t bytes =
                    static_cast<std::uint64_t>(out.tellp());
                out.close();
                if (!out)
                    throw std::runtime_error("failed to write "
                                             + tmp);
                if (opts_.verifyArchives) {
                    std::ostringstream ref(std::ios::binary);
                    writeArchive(rec, ref, opts_.archiveIo);
                    std::ifstream back(tmp, std::ios::binary);
                    std::ostringstream got(std::ios::binary);
                    got << back.rdbuf();
                    if (std::move(got).str()
                        != std::move(ref).str())
                        throw std::runtime_error(
                            "streamed archive for " + rj.app
                            + " differs from writeArchive");
                }
                if (std::rename(tmp.c_str(), path.c_str()) != 0)
                    throw std::runtime_error("cannot rename " + tmp);
                {
                    std::lock_guard<std::mutex> lock(info_mu);
                    ServeRecordingInfo &info = infos[key];
                    info.archiveBytes = bytes;
                    info.archiveSegments = writer->segmentCount();
                    info.archivePath = path;
                }
                return rec;
            },
            fresh);
    };

    const auto run_session = [&](std::size_t idx) {
        const auto t0 = std::chrono::steady_clock::now();
        const ServeJob &job = jobs[idx];
        ServeSessionResult &r = report.sessions[idx];
        try {
            bool fresh = false;
            const Recording &rec =
                ensure_recorded(job.record, &fresh);
            r.fresh = fresh;
            switch (job.cls) {
            case ServeClass::kRecord:
                r.ok = true;
                break;
            case ServeClass::kReplay: {
                const Replayer replayer;
                const ReplayOutcome out = replayer.replay(
                    rec, job.replayEnvSeed, {}, job.replayWindow);
                r.ok = out.deterministicExact
                       || (rec.stratified()
                           && out.deterministicPerProc);
                if (!r.ok)
                    r.error = "replay diverged";
                break;
            }
            case ServeClass::kValidate: {
                ReplayCheckOptions vopts;
                vopts.envSeed = job.replayEnvSeed;
                vopts.replayWindow = job.replayWindow;
                const ReplayCheckResult res =
                    checkedReplay(rec, vopts);
                r.ok = res.ok;
                if (!res.ok)
                    r.error = divergenceKindName(res.report.kind);
                break;
            }
            }
        } catch (const std::exception &e) {
            r.ok = false;
            r.error = e.what();
        }
        r.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

        std::lock_guard<std::mutex> lock(info_mu);
        const std::string key = recordJobKey(job.record);
        ServeRecordingInfo &info = infos[key];
        info.app = job.record.app;
        info.modeName = serveModeLabel(job.record.mode);
        ++info.sessions;
        ++completed;
        if (opts_.progress) {
            std::string line = "{\"event\": \"session\", \"index\": "
                               + std::to_string(idx)
                               + ", \"class\": \"";
            line += serveClassName(job.cls);
            line += "\", \"app\": \"";
            appendEscaped(line, job.record.app);
            line += "\", \"ok\": ";
            line += r.ok ? "true" : "false";
            line += ", \"completed\": " + std::to_string(completed)
                    + ", \"total\": "
                    + std::to_string(jobs.size()) + "}";
            *opts_.progress << line << std::endl;
        }
    };

    // Fair dispatch: the pool claims tasks in vector order, so
    // ordering the vector round-robin-by-class IS the schedule.
    const std::vector<std::size_t> order = serveDispatchOrder(jobs);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(order.size());
    for (const std::size_t idx : order)
        tasks.push_back([&run_session, &gate, idx] {
            GateHold hold(gate);
            run_session(idx);
        });
    WorkerPool pool(width);
    pool.runBatch(tasks);

    for (auto &entry : infos) {
        entry.second.key = entry.first;
        report.recordings.push_back(std::move(entry.second));
    }
    report.cacheHits = cache.hits();
    report.cacheMisses = cache.misses();
    report.peakInflight = gate.peak();
    report.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return report;
}

} // namespace delorean
