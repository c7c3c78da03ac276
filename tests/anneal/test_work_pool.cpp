/**
 * @file
 * Tests for the shared caller-participating thread pool: runIndexed
 * must call fn(i) exactly once per index (including from nested
 * fan-outs, which is how a batch worker's multi-read annealer runs)
 * and degenerate sizes must behave.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "anneal/work_pool.h"

namespace hyqsat::anneal {
namespace {

TEST(WorkPool, RunIndexedCoversEveryIndexExactlyOnce)
{
    WorkPool pool(3);
    const int n = 257;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    pool.runIndexed(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkPool, RunIndexedHandlesDegenerateSizes)
{
    WorkPool pool(2);
    std::atomic<int> calls{0};
    pool.runIndexed(0, [&](int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    pool.runIndexed(-3, [&](int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    pool.runIndexed(1, [&](int i) {
        EXPECT_EQ(i, 0);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(WorkPool, NestedRunIndexedCompletesWithoutDeadlock)
{
    // Outer fan-out wider than the pool, each branch fanning out
    // again: with caller participation every level makes progress
    // even when all pool threads are already busy in outer branches.
    WorkPool pool(2);
    const int outer = 6, inner = 9;
    std::vector<std::atomic<int>> hits(outer * inner);
    for (auto &h : hits)
        h.store(0);
    pool.runIndexed(outer, [&](int o) {
        pool.runIndexed(inner, [&](int i) {
            hits[o * inner + i].fetch_add(1);
        });
    });
    for (int k = 0; k < outer * inner; ++k)
        EXPECT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(WorkPool, RunIndexedWorksOnSharedPoolUnderConcurrentCallers)
{
    // Two caller threads fanning out on the shared pool at once:
    // each call must still see all of its own indices exactly once.
    auto run = [](std::vector<std::atomic<int>> &hits) {
        WorkPool::shared().runIndexed(
            static_cast<int>(hits.size()),
            [&](int i) { hits[i].fetch_add(1); });
    };
    std::vector<std::atomic<int>> a(101), b(67);
    for (auto &h : a)
        h.store(0);
    for (auto &h : b)
        h.store(0);
    std::thread other([&] { run(a); });
    run(b);
    other.join();
    for (auto &h : a)
        EXPECT_EQ(h.load(), 1);
    for (auto &h : b)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkPool, CallerThrowUnwindsCleanlyAndPoolStaysUsable)
{
    // fn may only throw on the runIndexed caller's own thread (a
    // pool-thread throw terminates); the unwind must stop further
    // claims, wait out in-flight helpers and unlink the batch, so
    // the exception propagates and the pool keeps working.
    WorkPool pool(3);
    const auto caller = std::this_thread::get_id();
    for (int round = 0; round < 4; ++round) {
        std::atomic<int> caller_calls{0};
        bool threw = false;
        try {
            pool.runIndexed(64, [&](int) {
                if (std::this_thread::get_id() != caller) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                    return;
                }
                if (caller_calls.fetch_add(1) == 1)
                    throw std::runtime_error("boom");
            });
        } catch (const std::runtime_error &) {
            threw = true;
        }
        // The caller participates from index 0, so it claims at
        // least two indices (the pool threads sleep) and throws.
        EXPECT_TRUE(threw) << "round " << round;

        std::vector<std::atomic<int>> hits(37);
        for (auto &h : hits)
            h.store(0);
        pool.runIndexed(static_cast<int>(hits.size()),
                        [&](int i) { hits[i].fetch_add(1); });
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "round " << round;
    }
}

} // namespace
} // namespace hyqsat::anneal
