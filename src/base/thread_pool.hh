/**
 * @file
 * Fixed-size thread pool for the experiment harness.
 *
 * The simulator kernel is strictly single-instance (see
 * docs/ARCHITECTURE.md): one EventQueue, no internal locking.
 * Parallelism therefore lives one layer up -- independent DsmSystem
 * runs fan out one per worker. This pool is sized for that shape:
 * tens-to-hundreds of coarse tasks (each milliseconds to minutes),
 * not millions of micro-tasks, so N workers pulling from one
 * mutex-guarded FIFO are plenty. A shared queue never turns uneven:
 * whichever worker frees up first takes the oldest task.
 *
 * Semantics:
 *  - submit() returns a std::future; exceptions thrown by the task
 *    propagate through future::get();
 *  - tasks start in submission order (one worker: run in it);
 *  - the destructor drains every queued task before joining, so a
 *    future obtained from submit() never dangles.
 *
 * Caveat -- blocking on child futures from inside a task: a worker
 * waiting in future::get() does not run queued tasks, so if *every*
 * worker blocks on a task that is still queued, the pool deadlocks.
 * Structure fan-out so the join happens outside the pool, as
 * SweepRunner does: submit all, then gather from the caller.
 */

#ifndef MSPDSM_BASE_THREAD_POOL_HH
#define MSPDSM_BASE_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mspdsm
{

/**
 * Fixed-size pool of workers over one FIFO.
 *
 * Usage:
 * @code
 *   ThreadPool pool(8);
 *   auto fut = pool.submit([] { return expensiveRun(); });
 *   RunResult r = fut.get();
 * @endcode
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains all queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Queue @p f for execution.
     * @return future of the task's result; get() rethrows anything
     *         the task throws.
     */
    template <typename F>
    std::future<std::invoke_result_t<std::decay_t<F>>>
    submit(F &&f)
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        std::packaged_task<R()> task(std::forward<F>(f));
        std::future<R> fut = task.get_future();
        // The queue holds move-only void() tasks; the inner task
        // stores the result (or exception) in fut's shared state.
        enqueue(std::packaged_task<void()>(
            [t = std::move(task)]() mutable { t(); }));
        return fut;
    }

    /** Hardware concurrency with a sane floor (never 0). */
    static unsigned defaultThreads();

  private:
    void enqueue(std::packaged_task<void()> task);
    void workerLoop();

    std::mutex mtx_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> tasks_; //!< under mtx_
    bool stop_ = false; //!< destructor has run (under mtx_)
    std::vector<std::thread> workers_;
};

} // namespace mspdsm

#endif // MSPDSM_BASE_THREAD_POOL_HH
