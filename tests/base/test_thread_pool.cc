/** @file Thread pool: result delivery, exception propagation,
 * drain-on-shutdown, and submission ordering. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

using namespace mspdsm;

TEST(ThreadPool, DeliversEveryResult)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 100; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 1; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotKillWorker)
{
    // A throwing task must leave its worker alive for later tasks.
    ThreadPool pool(1);
    auto bad = pool.submit([]() -> int { throw std::logic_error("x"); });
    EXPECT_THROW(bad.get(), std::logic_error);
    EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    // Shutdown semantics: every submitted task runs before the
    // workers join, so futures obtained from submit() never dangle.
    std::atomic<int> done{0};
    std::vector<std::future<void>> futs;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            futs.push_back(pool.submit([&done] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++done;
            }));
        }
        // Destructor runs here with most tasks still queued.
    }
    EXPECT_EQ(done.load(), 64);
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, SingleWorkerRunsInSubmissionOrder)
{
    // One worker over the FIFO: submission-order execution (the
    // property that makes a --jobs 1 sweep equivalent to the serial
    // loop).
    ThreadPool pool(1);
    std::vector<int> order;
    std::mutex mtx;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 32; ++i) {
        futs.push_back(pool.submit([i, &order, &mtx] {
            std::lock_guard<std::mutex> lk(mtx);
            order.push_back(i);
        }));
    }
    for (auto &f : futs)
        f.get();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, QuickTasksRunPastABlockedWorker)
{
    // Park one of the two workers on a gate; every quick task must
    // still complete on the free worker. A pool that queued tasks
    // per worker would strand some behind the parked one and time
    // out here.
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    auto blocker = pool.submit([gate] { gate.wait(); });
    std::vector<std::future<int>> quick;
    for (int i = 0; i < 16; ++i)
        quick.push_back(pool.submit([i] { return i; }));
    for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(quick[i].wait_for(std::chrono::seconds(30)),
                  std::future_status::ready);
        EXPECT_EQ(quick[i].get(), i);
    }
    release.set_value();
    blocker.get();
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock)
{
    // A task submitting follow-up work to its own pool (recursive
    // fan-out) must complete.
    ThreadPool pool(2);
    auto outer = pool.submit([&pool] {
        auto inner = pool.submit([] { return 5; });
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 6);
}
