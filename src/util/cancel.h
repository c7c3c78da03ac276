/**
 * @file
 * Cooperative cancellation shared by every layer that can block or
 * loop for a long time: the CDCL search (decision and conflict
 * boundaries), the hybrid loop's warm-up iterations, the SA sweep
 * loop inside every sampler backend, the portfolio racing layer and
 * the service scheduler.
 *
 * A StopToken is a single atomic flag with an optional parent.
 * Owners call requestStop(); observers poll stopRequested() at their
 * natural loop boundaries, and the poll also reads every ancestor, so
 * nothing has to forward a trip. Nothing is interrupted
 * mid-operation, which keeps every data structure consistent and
 * makes cancellation latency the length of one loop body
 * (microseconds for CDCL, one sweep for an anneal). The link is
 * pull-style so that requestStop() stays one relaxed atomic store,
 * which is all a signal handler may do.
 */

#ifndef HYQSAT_UTIL_CANCEL_H
#define HYQSAT_UTIL_CANCEL_H

#include <atomic>
#include <chrono>

namespace hyqsat {

/** One-shot cooperative stop flag, safe to share across threads. */
class StopToken
{
  public:
    StopToken() = default;

    /** A child of @p parent (nullptr = none), which must outlive it:
     *  stopped once it or any ancestor has tripped, never the other
     *  way round. */
    explicit StopToken(const StopToken *parent) noexcept
        : parent_(parent)
    {
    }

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

    /** Polled by observers; relaxed is enough for latched flags. */
    bool
    stopRequested() const noexcept
    {
        for (const StopToken *t = this; t; t = t->parent_)
            if (t->stop_.load(std::memory_order_relaxed))
                return true;
        return false;
    }

    /** Re-arm this token's own flag (only when no observer is
     *  running); a tripped ancestor still stops it. */
    void
    reset() noexcept
    {
        stop_.store(false, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> stop_{false};
    const StopToken *parent_ = nullptr;
};

/**
 * Trips a token at a wall-clock time unless destroyed first. All
 * deadlines share one timer thread, started by the first armed one
 * and leaked (like anneal::WorkPool); it sleeps to the earliest
 * pending deadline, and arming a later one does not wake it. To tell
 * a timeout from other stops, give the deadline a token of its own
 * and make the observed token its child.
 */
class Deadline
{
  public:
    /** Trip @p token (which must outlive this) once @p seconds have
     *  passed; a budget <= 0 or beyond ~30 years never trips. */
    Deadline(StopToken &token, double seconds);

    /** Disarm: once this returns the timer never touches the token. */
    ~Deadline();

    Deadline(const Deadline &) = delete;
    Deadline &operator=(const Deadline &) = delete;

  private:
    friend struct DeadlineTimer;

    StopToken &token_;
    std::chrono::steady_clock::time_point at_;
    bool armed_ = false;
};

} // namespace hyqsat

#endif // HYQSAT_UTIL_CANCEL_H
