#include "common/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

namespace delorean
{

unsigned
defaultJobs()
{
    static const unsigned jobs = [] {
        if (const char *env = std::getenv("DELOREAN_JOBS")) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(env, &end, 10);
            if (end != env && *end == '\0' && v > 0)
                return static_cast<unsigned>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }();
    return jobs;
}

namespace
{

/**
 * The thread budget of one call from outside the executor and of
 * everything nested in it. Counters change under the executor mutex.
 */
struct Tree
{
    std::size_t width;
    std::size_t busy = 0;     ///< threads working for it
    std::size_t reserved = 0; ///< its open seats
};

/// The tree this thread works for; null outside the executor.
thread_local std::shared_ptr<Tree> t_tree;

/**
 * One run() batch or one post. Its owner keeps it alive until every
 * helper has left; workers find it through its open seats.
 */
struct Batch
{
    explicit Batch(std::vector<std::function<void()>> &t)
        : tasks(t), errors(t.size())
    {
    }

    std::vector<std::function<void()>> &tasks;
    std::vector<std::exception_ptr> errors; ///< slot i: task i's failure
    std::atomic<std::size_t> next{0};       ///< next unclaimed task
    std::shared_ptr<Tree> tree;
    std::size_t seats = 0;  ///< helper places still open (under mu)
    std::size_t joined = 0; ///< helpers inside drain() (under mu)
};

void
drain(Batch &b)
{
    for (std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
         i < b.tasks.size();
         i = b.next.fetch_add(1, std::memory_order_relaxed)) {
        try {
            b.tasks[i]();
        } catch (...) {
            b.errors[i] = std::current_exception();
        }
    }
}

/** Run drain(@p b) on this thread as work of its tree, unlocked. */
void
within(std::unique_lock<std::mutex> &lock, Batch &b)
{
    const bool enters = t_tree != b.tree;
    if (enters)
        ++b.tree->busy;
    std::shared_ptr<Tree> outer = std::exchange(t_tree, b.tree);
    lock.unlock();
    drain(b);
    lock.lock();
    t_tree = std::move(outer);
    if (enters)
        --b.tree->busy;
}

class Pool
{
  public:
    ~Pool()
    {
        std::unique_lock<std::mutex> lock(mu);
        stop = true;
        lock.unlock();
        work.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    /**
     * Give @p b (under mu) a tree and up to @p helpers open seats. From
     * outside the executor @p b roots a tree @p width wide and first
     * spawns the workers it needs: @p helpers for a run, for a post one
     * idle worker and @p width in all. Nested, it gets only idle
     * workers that fit its caller's tree.
     */
    void
    open(Batch &b, std::size_t helpers, std::size_t width, bool post)
    {
        if (t_tree) {
            b.tree = t_tree;
            const Tree &t = *t_tree;
            const std::size_t used = t.busy + t.reserved;
            b.seats = std::min({helpers, unpromised(),
                                t.width > used ? t.width - used : 0});
        } else {
            b.tree = std::make_shared<Tree>(Tree{width});
            spawnTo(post ? std::max(width, threads.size()
                                               + (unpromised() == 0))
                         : helpers);
            // If spawning failed, no more seats than workers; a post
            // with none runs on its waiter.
            b.seats = std::min(helpers, threads.size());
        }
        if (b.seats == 0)
            return;
        batches.push_back(&b);
        promised += b.seats;
        b.tree->reserved += b.seats;
        for (std::size_t k = 0; k < b.seats; ++k)
            work.notify_one();
    }

    /** Close the seats of @p b that no worker took (under mu). */
    void
    close(Batch &b)
    {
        if (b.seats == 0)
            return;
        batches.erase(std::find(batches.begin(), batches.end(), &b));
        promised -= b.seats;
        b.tree->reserved -= b.seats;
        b.seats = 0;
    }

    /**
     * The owner's part: drain @p b, close its seats, wait for the
     * helpers, rethrow the lowest-index failure. An unlocked @p lock
     * means @p b was never opened: it runs inline, and its thread
     * stays outside the executor if it was.
     */
    void
    finish(std::unique_lock<std::mutex> &lock, Batch &b)
    {
        if (!lock.owns_lock()) {
            drain(b);
        } else {
            within(lock, b);
            close(b);
            done.wait(lock, [&b] { return b.joined == 0; });
            lock.unlock();
        }
        for (const std::exception_ptr &e : b.errors)
            if (e)
                std::rethrow_exception(e);
    }

    std::mutex mu;
    std::condition_variable work; ///< workers: a seat is open
    std::condition_variable done; ///< owners: a helper left
    std::deque<Batch *> batches;  ///< batches and posts with open seats
    std::size_t idle = 0;
    std::size_t promised = 0; ///< open seats across all batches
    bool stop = false;
    std::vector<std::thread> threads; ///< last: loop() uses the above

  private:
    /** Workers that are idle and not yet promised to a seat. */
    std::size_t
    unpromised() const
    {
        return idle > promised ? idle - promised : 0;
    }

    /** Grow to @p n workers; fewer if the OS refuses. */
    void
    spawnTo(std::size_t n)
    {
        try {
            while (threads.size() < n) {
                threads.emplace_back([this] { loop(); });
                ++idle; // counted before it runs, so no caller re-spawns
            }
        } catch (const std::system_error &) {
            // Run with the workers there are; owners drain themselves.
        }
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            work.wait(lock, [this] { return stop || !batches.empty(); });
            if (stop)
                return;
            Batch &b = *batches.front();
            if (--b.seats == 0)
                batches.pop_front();
            --promised;
            --b.tree->reserved;
            --idle;
            ++b.joined;
            within(lock, b);
            --b.joined;
            ++idle;
            done.notify_all();
        }
    }
};

Pool &
pool()
{
    static Pool p;
    return p;
}

} // namespace

/** A post: a one-task batch its handle owns. */
struct Executor::Handle::State
{
    explicit State(std::function<void()> task) : tasks{std::move(task)} {}

    std::vector<std::function<void()>> tasks;
    Batch batch{tasks};
};

void
Executor::run(std::vector<std::function<void()>> &tasks, unsigned width)
{
    Batch b(tasks);
    const std::size_t w = width ? width : defaultJobs();
    Pool &p = pool();
    std::unique_lock<std::mutex> lock(p.mu, std::defer_lock);
    if (std::min(w, tasks.size()) > 1) {
        lock.lock();
        p.open(b, std::min(w, tasks.size()) - 1, w, false);
    }
    p.finish(lock, b);
}

Executor::Handle
Executor::post(std::function<void()> task, unsigned width)
{
    Handle h;
    h.state_ = std::make_unique<Handle::State>(std::move(task));
    Pool &p = pool();
    std::lock_guard<std::mutex> guard(p.mu);
    p.open(h.state_->batch, 1, width ? width : defaultJobs(), true);
    return h;
}

std::size_t
Executor::workers()
{
    std::lock_guard<std::mutex> guard(pool().mu);
    return pool().threads.size();
}

Executor::Handle::Handle() noexcept = default;
Executor::Handle::Handle(Handle &&) noexcept = default;

Executor::Handle &
Executor::Handle::operator=(Handle &&other) noexcept
{
    Handle old(std::move(*this)); // waits for the replaced post
    state_ = std::move(other.state_);
    return *this;
}

Executor::Handle::~Handle()
{
    try {
        wait();
    } catch (...) {
        // An abandoned post's failure has nobody left to report to;
        // callers that care call wait() themselves.
    }
}

bool
Executor::Handle::ready() const
{
    if (!state_)
        return true;
    std::lock_guard<std::mutex> guard(pool().mu);
    const Batch &b = state_->batch;
    // Run by a worker that has left, or seatless: no worker will come.
    return b.joined == 0
           && (b.next.load(std::memory_order_relaxed) > 0 || b.seats == 0);
}

void
Executor::Handle::wait()
{
    if (!state_)
        return;
    const std::unique_ptr<State> s = std::move(state_);
    std::unique_lock<std::mutex> lock(pool().mu);
    pool().close(s->batch); // no worker took it: it runs here
    pool().finish(lock, s->batch);
}

} // namespace delorean
