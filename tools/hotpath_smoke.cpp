/**
 * @file
 * CI smoke check for the commit conflict check: records small radix,
 * fft and lu workloads under exact line-set and BulkSC signature
 * disambiguation, and asserts that
 *  - recording the same workload twice serializes to byte-identical
 *    streams,
 *  - the recording replays deterministically, and
 *  - the summary precheck counters move only under signatures (exact
 *    disambiguation never consults them).
 * Wired into ctest as `hotpath_smoke`.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "core/recorder.hpp"
#include "core/serialize.hpp"

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr unsigned kScale = 5;

std::string
serialized(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    return out.str();
}

Recording
recordApp(const std::string &app, const MachineConfig &machine)
{
    const Workload workload(app, machine.numProcs, kSeed,
                            WorkloadScale{kScale});
    return Recorder(ModeConfig::orderOnly(), machine).record(workload, 7);
}

bool
fail(const std::string &app, bool exact, const char *what)
{
    std::fprintf(stderr, "hotpath_smoke: %s (exact=%d): %s\n", app.c_str(),
                 exact, what);
    return false;
}

bool
checkApp(const std::string &app, bool exact_disambiguation)
{
    MachineConfig machine;
    machine.bulk.exactDisambiguation = exact_disambiguation;

    const Recording rec = recordApp(app, machine);
    if (serialized(rec) != serialized(recordApp(app, machine)))
        return fail(app, exact_disambiguation,
                    "two recordings of the same run differ");

    const std::uint64_t tests =
        rec.stats.sigSummaryHits + rec.stats.sigSummaryRejects;
    if (exact_disambiguation ? tests != 0 : tests == 0)
        return fail(app, exact_disambiguation,
                    "summary precheck counters disagree with the "
                    "disambiguation mode");

    const ReplayOutcome out = Replayer().replay(rec, /*env_seed=*/99);
    if (!out.deterministicExact)
        return fail(app, exact_disambiguation, "replay not deterministic");
    return true;
}

} // namespace

int
main()
{
    bool ok = true;
    for (const char *app : {"radix", "fft", "lu"}) {
        ok = checkApp(app, /*exact_disambiguation=*/true) && ok;
        ok = checkApp(app, /*exact_disambiguation=*/false) && ok;
    }
    if (!ok)
        return 1;
    std::printf("hotpath_smoke: recordings repeat byte-identical, replays "
                "deterministic\n");
    return 0;
}
