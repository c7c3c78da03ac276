#include <gtest/gtest.h>

#include <algorithm>

#include "sat/heap.h"
#include "util/rng.h"

namespace hyqsat::sat {
namespace {

TEST(VarOrderHeap, EmptyByDefault)
{
    std::vector<double> scores;
    VarOrderHeap heap(scores);
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.size(), 0u);
}

TEST(VarOrderHeap, InsertAndContainment)
{
    std::vector<double> scores{1.0, 2.0, 3.0};
    VarOrderHeap heap(scores);
    heap.insert(1);
    EXPECT_TRUE(heap.inHeap(1));
    EXPECT_FALSE(heap.inHeap(0));
    EXPECT_FALSE(heap.inHeap(2));
    EXPECT_FALSE(heap.inHeap(99)); // out of range is just "absent"
}

TEST(VarOrderHeap, RemoveMaxReturnsHighestScore)
{
    std::vector<double> scores{5.0, 9.0, 1.0, 7.0};
    VarOrderHeap heap(scores);
    for (Var v = 0; v < 4; ++v)
        heap.insert(v);
    EXPECT_EQ(heap.removeMax(), 1);
    EXPECT_EQ(heap.removeMax(), 3);
    EXPECT_EQ(heap.removeMax(), 0);
    EXPECT_EQ(heap.removeMax(), 2);
    EXPECT_TRUE(heap.empty());
}

TEST(VarOrderHeap, RemovedElementNoLongerInHeap)
{
    std::vector<double> scores{1.0, 2.0};
    VarOrderHeap heap(scores);
    heap.insert(0);
    heap.insert(1);
    heap.removeMax();
    EXPECT_FALSE(heap.inHeap(1));
    EXPECT_TRUE(heap.inHeap(0));
}

TEST(VarOrderHeap, UpdateAfterScoreIncrease)
{
    std::vector<double> scores{1.0, 2.0, 3.0};
    VarOrderHeap heap(scores);
    for (Var v = 0; v < 3; ++v)
        heap.insert(v);
    scores[0] = 10.0;
    heap.update(0);
    EXPECT_EQ(heap.removeMax(), 0);
}

TEST(VarOrderHeap, UpdateAfterScoreDecrease)
{
    std::vector<double> scores{9.0, 2.0, 3.0};
    VarOrderHeap heap(scores);
    for (Var v = 0; v < 3; ++v)
        heap.insert(v);
    scores[0] = 0.5;
    heap.update(0);
    EXPECT_EQ(heap.removeMax(), 2);
}

TEST(VarOrderHeap, UpdateOfAbsentVariableIsNoop)
{
    std::vector<double> scores{1.0};
    VarOrderHeap heap(scores);
    EXPECT_NO_FATAL_FAILURE(heap.update(0));
}

TEST(VarOrderHeap, ClearEmptiesAndAllowsReinsert)
{
    std::vector<double> scores{1.0, 2.0};
    VarOrderHeap heap(scores);
    heap.insert(0);
    heap.insert(1);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    EXPECT_FALSE(heap.inHeap(0));
    heap.insert(0);
    EXPECT_EQ(heap.removeMax(), 0);
}

TEST(VarOrderHeap, RandomizedDrainMatchesSort)
{
    hyqsat::Rng rng(12345);
    const int n = 200;
    std::vector<double> scores(n);
    for (auto &s : scores)
        s = rng.uniform();
    VarOrderHeap heap(scores);
    for (Var v = 0; v < n; ++v)
        heap.insert(v);

    std::vector<Var> drained;
    while (!heap.empty())
        drained.push_back(heap.removeMax());

    std::vector<Var> expected(n);
    for (Var v = 0; v < n; ++v)
        expected[v] = v;
    std::sort(expected.begin(), expected.end(), [&](Var a, Var b) {
        return scores[a] > scores[b];
    });
    EXPECT_EQ(drained, expected);
}

TEST(VarOrderHeap, RandomizedUpdatesKeepHeapConsistent)
{
    hyqsat::Rng rng(777);
    const int n = 64;
    std::vector<double> scores(n, 0.0);
    VarOrderHeap heap(scores);
    for (Var v = 0; v < n; ++v)
        heap.insert(v);
    for (int round = 0; round < 1000; ++round) {
        const Var v = static_cast<Var>(rng.below(n));
        scores[v] = rng.uniform() * 100;
        heap.update(v);
    }
    double last = 1e300;
    while (!heap.empty()) {
        const Var v = heap.removeMax();
        EXPECT_LE(scores[v], last);
        last = scores[v];
    }
}

TEST(VarOrderHeap, IncreaseMatchesUpdateWhenScoresOnlyGrow)
{
    // Integer bumps make ties common: the sift-up-only increase()
    // must leave the exact same heap layout as update(), ties and
    // interleaved removals included.
    hyqsat::Rng rng(4242);
    const int n = 50;
    std::vector<double> a(n, 0.0), b(n, 0.0);
    VarOrderHeap by_update(a), by_increase(b);
    for (Var v = 0; v < n; ++v) {
        by_update.insert(v);
        by_increase.insert(v);
    }
    for (int round = 0; round < 2000; ++round) {
        const Var v = static_cast<Var>(rng.below(n));
        const double bump = static_cast<double>(rng.below(3));
        a[v] += bump;
        b[v] += bump;
        by_update.update(v);
        by_increase.increase(v);
        if (round % 50 == 49) {
            const Var top = by_update.removeMax();
            ASSERT_EQ(by_increase.removeMax(), top);
            by_update.insert(top);
            by_increase.insert(top);
        }
    }
    while (!by_update.empty())
        ASSERT_EQ(by_increase.removeMax(), by_update.removeMax());
    EXPECT_TRUE(by_increase.empty());
}

} // namespace
} // namespace hyqsat::sat
