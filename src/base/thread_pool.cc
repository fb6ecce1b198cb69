#include "base/thread_pool.hh"

#include <algorithm>

namespace mspdsm
{

unsigned
ThreadPool::defaultThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = std::max(1u, threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::enqueue(std::packaged_task<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mtx_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lk(mtx_);
            cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
            // Drain-before-exit: stop_ alone is not enough, queued
            // work must be gone too (futures from submit() never
            // dangle).
            if (tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

} // namespace mspdsm
