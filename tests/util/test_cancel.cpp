/**
 * @file
 * Linked StopTokens (a child sees every ancestor's trip, never the
 * other way round) and Deadline, the one-timer-thread wall-clock
 * trip: it fires no earlier than its budget, a later-armed earlier
 * deadline still fires first, and a destroyed one never fires.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/cancel.h"

namespace hyqsat {
namespace {

using Clock = std::chrono::steady_clock;

/** Poll @p token for up to 10 s; true once it reports stopped. */
bool
waitStopped(const StopToken &token)
{
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (!token.stopRequested()) {
        if (Clock::now() > give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(StopToken, ChildSeesParentTrip)
{
    StopToken parent;
    StopToken child(&parent);
    EXPECT_FALSE(child.stopRequested());
    parent.requestStop();
    EXPECT_TRUE(child.stopRequested());

    // reset() re-arms only the token's own flag.
    child.reset();
    EXPECT_TRUE(child.stopRequested());
    parent.reset();
    EXPECT_FALSE(child.stopRequested());
}

TEST(StopToken, ParentNeverSeesChildTrip)
{
    StopToken parent;
    StopToken child(&parent);
    StopToken sibling(&parent);
    child.requestStop();
    EXPECT_TRUE(child.stopRequested());
    EXPECT_FALSE(parent.stopRequested());
    EXPECT_FALSE(sibling.stopRequested());
}

TEST(StopToken, ThreeLevelChain)
{
    StopToken root;
    StopToken middle(&root);
    StopToken leaf(&middle);
    middle.requestStop();
    EXPECT_TRUE(leaf.stopRequested());
    EXPECT_FALSE(root.stopRequested());

    middle.reset();
    EXPECT_FALSE(leaf.stopRequested());
    root.requestStop();
    EXPECT_TRUE(middle.stopRequested());
    EXPECT_TRUE(leaf.stopRequested());
}

TEST(StopToken, TripFromAnotherThreadReachesTheLeaf)
{
    StopToken root;
    StopToken middle(&root);
    StopToken leaf(&middle);
    std::thread tripper([&root] { root.requestStop(); });
    EXPECT_TRUE(waitStopped(leaf));
    tripper.join();
}

TEST(Deadline, TripsItsTokenNoEarlierThanItsBudget)
{
    StopToken token;
    const auto start = Clock::now();
    const Deadline deadline(token, 0.05);
    ASSERT_TRUE(waitStopped(token));
    EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(50));
}

TEST(Deadline, LaterArmedEarlierDeadlineFiresFirst)
{
    // The timer sleeps to the 60 s deadline first; arming a nearer
    // one must wake it.
    StopToken far_token, near_token;
    const Deadline far(far_token, 60.0);
    const Deadline near(near_token, 0.02);
    ASSERT_TRUE(waitStopped(near_token));
    EXPECT_FALSE(far_token.stopRequested());
}

TEST(Deadline, DestroyedBeforeItFiresNeverTrips)
{
    StopToken dropped;
    {
        const Deadline deadline(dropped, 0.2);
    }
    // By the time a later deadline has fired, the timer has passed
    // the dropped one's time.
    StopToken later;
    const Deadline witness(later, 0.3);
    ASSERT_TRUE(waitStopped(later));
    EXPECT_FALSE(dropped.stopRequested());
}

TEST(Deadline, OutOfRangeBudgetNeverTrips)
{
    StopToken token;
    {
        const Deadline zero(token, 0.0);
        const Deadline negative(token, -1.0);
        const Deadline never(token, 1e30);
    }
    EXPECT_FALSE(token.stopRequested());
}

} // namespace
} // namespace hyqsat
