/**
 * @file
 * delorean_serve: the streaming record/replay service CLI.
 *
 * Reads a job stream (one session per line, see parseServeJob) from a
 * file or stdin, multiplexes the sessions over a worker pool with
 * content-addressed recording dedupe and incremental archive
 * emission, and prints the deterministic JSON ledger on stdout.
 * Progress events (one JSON line per completed session) go to stderr.
 *
 *   delorean_serve --archive-dir /tmp/dla --jobs 4 jobs.txt
 *   echo "record app=radix scale=20" | delorean_serve --verify
 *   delorean_serve --ring-dir /tmp/rings --ring-budget 1048576 jobs.txt
 *
 * The stdout ledger is byte-identical at any --jobs; add
 * --throughput to append wall-clock figures (sessions/sec, archive
 * MB/sec) for benchmarking.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "serve/service.hpp"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] [jobfile]\n"
        "  --jobs N              worker-pool width (default: "
        "DELOREAN_JOBS or host cores)\n"
        "  --max-inflight N      admission bound on concurrent "
        "sessions (default: pool width)\n"
        "  --archive-dir DIR     stream .dla archives into DIR "
        "(default: off)\n"
        "  --ring-dir DIR        stream always-on ring archives into "
        "DIR (default: off)\n"
        "  --ring-budget BYTES   per-recording ring disk budget "
        "(default: 4 MiB)\n"
        "  --ring-lag N          ring replay-start lag bound in "
        "commits (default: 2x period)\n"
        "  --checkpoint-period N checkpoint/segment period in global "
        "commits (default: 50)\n"
        "  --io-threads N        archive codec worker count "
        "(default: DELOREAN_JOBS)\n"
        "  --verify              cross-check streamed archives "
        "against writeArchive\n"
        "  --throughput          append wall-clock figures to the "
        "ledger\n"
        "  --quiet               suppress per-session progress on "
        "stderr\n"
        "jobs come from jobfile (or stdin), one per line:\n"
        "  record   app=radix seed=7 scale=30 mode=ordersize env=1\n"
        "  replay   app=radix seed=7 scale=30 mode=ordersize renv=5 "
        "window=2\n"
        "  validate app=fft mode=stratified strat=4 renv=9\n",
        argv0);
    return 2;
}

bool
parseUnsigned(const char *s, unsigned &out)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0')
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    delorean::ServeOptions opts;
    opts.progress = &std::cerr;
    bool throughput = false;
    unsigned checkpoint_period = 50;
    const char *job_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg);
                std::exit(2);
            }
            return argv[++i];
        };
        unsigned n = 0;
        if (std::strcmp(arg, "--jobs") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            opts.jobs = n;
        } else if (std::strcmp(arg, "--max-inflight") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            opts.maxInflight = n;
        } else if (std::strcmp(arg, "--archive-dir") == 0) {
            opts.archiveDir = value();
        } else if (std::strcmp(arg, "--ring-dir") == 0) {
            opts.ringDir = value();
        } else if (std::strcmp(arg, "--ring-budget") == 0) {
            char *end = nullptr;
            const char *v = value();
            opts.ringBudgetBytes = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || opts.ringBudgetBytes == 0)
                return usage(argv[0]);
        } else if (std::strcmp(arg, "--ring-lag") == 0) {
            char *end = nullptr;
            const char *v = value();
            opts.ringMaxReplayLag = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                return usage(argv[0]);
        } else if (std::strcmp(arg, "--checkpoint-period") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            checkpoint_period = n;
        } else if (std::strcmp(arg, "--io-threads") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            opts.archiveIo.ioThreads = n;
        } else if (std::strcmp(arg, "--verify") == 0) {
            opts.verifyArchives = true;
        } else if (std::strcmp(arg, "--throughput") == 0) {
            throughput = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            opts.progress = nullptr;
        } else if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         arg);
            return usage(argv[0]);
        } else if (!job_path) {
            job_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    opts.checkpointPeriod = checkpoint_period;

    std::vector<delorean::ServeJob> jobs;
    try {
        if (job_path) {
            std::ifstream in(job_path);
            if (!in) {
                std::fprintf(stderr, "%s: cannot open %s\n", argv[0],
                             job_path);
                return 1;
            }
            jobs = delorean::parseServeJobs(in);
        } else {
            jobs = delorean::parseServeJobs(std::cin);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    if (jobs.empty()) {
        std::fprintf(stderr, "%s: no jobs\n", argv[0]);
        return 1;
    }

    delorean::ServeService service(opts);
    const delorean::ServeReport report = service.run(jobs);
    std::fputs(report.ledgerJson(throughput).c_str(), stdout);
    return report.okCount() == report.sessions.size() ? 0 : 1;
}
