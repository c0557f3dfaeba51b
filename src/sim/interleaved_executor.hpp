/**
 * @file
 * Interleaved (non-chunked) multiprocessor executor.
 *
 * Executes a workload under a conventional consistency model — the RC
 * and SC comparison machines of Section 5, which "do not support
 * BulkSC, speculative tasking, or logs". Threads are interleaved at
 * instruction granularity by advancing the thread with the smallest
 * local clock, with per-instruction costs from TimingModel. Optionally
 * emits the global memory-access order for the baseline recorders.
 */

#ifndef DELOREAN_SIM_INTERLEAVED_EXECUTOR_HPP_
#define DELOREAN_SIM_INTERLEAVED_EXECUTOR_HPP_

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "memory/directory.hpp"
#include "sim/access_order.hpp"
#include "sim/timing_model.hpp"
#include "trace/workload.hpp"

namespace delorean
{

/** Outcome of an interleaved execution. */
struct InterleavedResult
{
    Cycle cycles = 0;              ///< max processor clock at the end
    InstrCount totalInstrs = 0;
    std::vector<InstrCount> perProcInstrs;
    std::uint64_t finalMemHash = 0;
    std::vector<std::uint64_t> perProcAcc;
    TrafficStats traffic;

    // Cost decomposition (cycles summed over all processors).
    double costCompute = 0;
    double costL1 = 0;
    double costL2 = 0;
    double costMem = 0;
    double costAmo = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t memHits = 0;
};

/** RC / SC baseline machine. */
class InterleavedExecutor
{
  public:
    /**
     * @param machine machine parameters (Table 5)
     * @param model consistency model to execute under
     */
    InterleavedExecutor(const MachineConfig &machine,
                        ConsistencyModel model)
        : machine_(machine), model_(model)
    {
    }

    /**
     * Run @p workload to completion.
     *
     * @param env_seed environment (device) randomness seed
     * @param sink optional consumer of the global access order
     */
    InterleavedResult run(const Workload &workload, std::uint64_t env_seed,
                          AccessSink *sink = nullptr) const;

  private:
    MachineConfig machine_;
    ConsistencyModel model_;
};

} // namespace delorean

#endif // DELOREAN_SIM_INTERLEAVED_EXECUTOR_HPP_
