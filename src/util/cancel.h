/**
 * @file
 * Cooperative cancellation primitive shared by every layer that can
 * block or loop for a long time: the CDCL search (decision and
 * conflict boundaries), the hybrid loop's warm-up iterations, the SA
 * sweep loop inside every sampler backend and the portfolio racing
 * layer.
 *
 * A StopToken is a single atomic flag. Owners call requestStop();
 * observers poll stopRequested() at their natural loop boundaries —
 * nothing is interrupted mid-operation, which keeps every data
 * structure consistent and makes cancellation latency the length of
 * one loop body (microseconds for CDCL, one sweep for an anneal, one
 * poll interval for a blocked sampler wait).
 */

#ifndef HYQSAT_UTIL_CANCEL_H
#define HYQSAT_UTIL_CANCEL_H

#include <atomic>

namespace hyqsat {

/** One-shot cooperative stop flag, safe to share across threads. */
class StopToken
{
  public:
    StopToken() = default;

    // The flag is an address-identity object: observers keep a
    // pointer to it, so it must never be copied or moved.
    StopToken(const StopToken &) = delete;
    StopToken &operator=(const StopToken &) = delete;

    /** Ask every observer to stop at its next cancellation point. */
    void
    requestStop() noexcept
    {
        stop_.store(true, std::memory_order_relaxed);
    }

    /** Polled by observers; relaxed is enough for a latched flag. */
    bool
    stopRequested() const noexcept
    {
        return stop_.load(std::memory_order_relaxed);
    }

    /** Re-arm the token (only when no observer is running). */
    void
    reset() noexcept
    {
        stop_.store(false, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> stop_{false};
};

} // namespace hyqsat

#endif // HYQSAT_UTIL_CANCEL_H
