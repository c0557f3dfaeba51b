/**
 * @file
 * The process-wide executor: one lazily started set of worker threads
 * shared by every parallel layer — campaigns, chunk-parallel replay,
 * the archive codec and its flush, and serve sessions.
 *
 * No layer owns threads. A call names a *width*, and the executor
 * lends it workers:
 *
 *  - run() blocks. The caller drains its own batch; up to
 *    min(width, tasks) - 1 workers join it. A call from outside the
 *    executor that needs more workers than exist spawns the missing
 *    ones once, and they stay.
 *  - post() is async. A worker runs the task; a post from outside the
 *    executor spawns one when none is idle, and as many as its width
 *    needs, once. Handle::wait() runs the task on the waiter if no
 *    worker has claimed it yet. A nested post that finds no seat is
 *    never claimed: Handle::ready() says so at once, and its owner
 *    waits on it to run it rather than leave it stranded.
 *
 * A call from outside the executor starts a *tree*: its width is a
 * thread budget for the call and everything nested in it. A nested
 * run() or post() — made from inside a task — only recruits workers
 * that are idle and fit the tree's budget, else it runs inline (a
 * nested post on its waiter). So nesting can neither deadlock (every
 * wait is on work a thread is running, or claims it) nor
 * oversubscribe: serve at jobs N >= 2 runs on at most N threads, not
 * N x ioThreads x replay jobs. A run() of width 1 (or of one task) is
 * a plain loop that leaves its caller outside the executor, so what
 * it nests roots trees of its own. Results go to index-keyed slots,
 * so output never depends on the width.
 */

#ifndef DELOREAN_COMMON_EXECUTOR_HPP_
#define DELOREAN_COMMON_EXECUTOR_HPP_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace delorean
{

/**
 * Default width: the DELOREAN_JOBS environment variable if it is a
 * positive integer, otherwise the host's hardware concurrency (at
 * least 1). Read once, at first use.
 */
unsigned defaultJobs();

class Executor
{
  public:
    /** Completion handle of a post(). Move-only; waits when destroyed. */
    class Handle
    {
      public:
        Handle() noexcept;
        Handle(Handle &&) noexcept;
        Handle &operator=(Handle &&other) noexcept;
        ~Handle();

        /**
         * True when wait() would not block on another thread: the task
         * has run, or no worker can take it (a nested post whose tree
         * has no idle seat), so wait() runs it here.
         */
        bool ready() const;

        /**
         * Block until the task has run, running it here if no worker
         * has claimed it; rethrow its exception. The handle is empty
         * afterwards.
         */
        void wait();

      private:
        friend class Executor;
        struct State;
        std::unique_ptr<State> state_;
    };

    /**
     * Run every task in @p tasks, at most @p width at a time (0 uses
     * defaultJobs()), and return when all have run. Every task runs
     * even after one throws; the lowest-index task's exception is
     * rethrown.
     */
    static void run(std::vector<std::function<void()>> &tasks,
                    unsigned width);

    /**
     * Start @p task on an idle worker. From outside the executor,
     * @p width (0 uses defaultJobs()) is the budget of the tree the
     * task roots, for the batches it runs; nested, it is ignored.
     */
    static Handle post(std::function<void()> task, unsigned width);

    /** Worker threads started so far (they never exit before exit). */
    static std::size_t workers();
};

} // namespace delorean

#endif // DELOREAN_COMMON_EXECUTOR_HPP_
