/** @file Unit tests for the work-stealing thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace autoscale {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 100; ++i) {
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    }
    for (auto &future : futures) {
        future.get();
    }
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; }).get();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce)
{
    ThreadPool pool(3);
    std::mutex mutex;
    std::multiset<std::size_t> seen;
    pool.parallelFor(57, [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(i);
    });
    EXPECT_EQ(seen.size(), 57u);
    for (std::size_t i = 0; i < 57; ++i) {
        EXPECT_EQ(seen.count(i), 1u) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroIsANoOp)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit([] {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(20, [&](std::size_t i) {
            if (i == 3 || i == 17) {
                throw std::runtime_error("boom " + std::to_string(i));
            }
            ++completed;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &error) {
        // The surfaced error is always the lowest failing index, so
        // diagnostics do not depend on scheduling.
        EXPECT_STREQ(error.what(), "boom 3");
    }
    EXPECT_EQ(completed.load(), 18);
}

TEST(ThreadPool, SurvivesManyWavesOfWork)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int wave = 0; wave < 10; ++wave) {
        pool.parallelFor(25, [&](std::size_t) { ++total; });
    }
    EXPECT_EQ(total.load(), 250);
}

// Lost-wakeup reproducer. A worker that has just found its wait
// predicate false must not miss a concurrent submit() or destructor
// notify; if it does, it sleeps forever and ~ThreadPool's join never
// returns. Every cycle opens that window once per task and once per
// pool, and four driver threads oversubscribe the cores so a worker
// is often preempted inside it. A pool that publishes queued_/stop_
// outside sleepMutex_ hangs here in most runs (7 of 8 on a 4-core
// x86-64 host), which the ctest TIMEOUT turns into a failure; the
// fixed pool finishes in about 2 s there.
TEST(ThreadPool, ConstructRunDestroyCyclesNeverHang)
{
    constexpr int kDrivers = 4;
    constexpr int kCyclesPerDriver = 5000;
    std::atomic<int> total{0};
    std::vector<std::thread> drivers;
    for (int d = 0; d < kDrivers; ++d) {
        drivers.emplace_back([&total] {
            for (int cycle = 0; cycle < kCyclesPerDriver; ++cycle) {
                ThreadPool pool(4);
                pool.parallelFor(4, [&total](std::size_t) { ++total; });
            }
        });
    }
    for (std::thread &driver : drivers) {
        driver.join();
    }
    EXPECT_EQ(total.load(), kDrivers * kCyclesPerDriver * 4);
}

// A fleet keeps one pool for its whole run and hands it each epoch's
// 4-5 shards, so its workers go to sleep between rounds and are woken
// by the next round's submits. Every round must run each index exactly
// once and return; a lost wakeup hangs parallelFor, which the ctest
// TIMEOUT turns into a failure.
TEST(ThreadPool, ParallelForReusesOnePoolAcrossManyCalls)
{
    constexpr int kRounds = 4000;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> runs(5);
    for (int round = 0; round < kRounds; ++round) {
        const std::size_t tasks = 4 + static_cast<std::size_t>(round % 2);
        pool.parallelFor(tasks, [&runs](std::size_t i) { ++runs[i]; });
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_EQ(runs[i].exchange(0), i < tasks ? 1 : 0)
                << "round " << round << " index " << i;
        }
    }
}

TEST(ThreadPool, MoreThreadsThanTasks)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    pool.parallelFor(2, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 2);
}

} // namespace
} // namespace autoscale
