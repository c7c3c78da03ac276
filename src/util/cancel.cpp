#include "util/cancel.h"

#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

namespace hyqsat {

using Clock = std::chrono::steady_clock;

/** The one timer thread behind every Deadline of the process. */
struct DeadlineTimer
{
    std::mutex mutex;
    std::condition_variable wake;
    std::set<std::pair<Clock::time_point, Deadline *>> pending;
    Clock::time_point sleeping_until = Clock::time_point::max();
    std::thread thread{[this] { loop(); }}; ///< after what loop() uses

    static DeadlineTimer &
    shared()
    {
        // Leaked on purpose, like anneal::WorkPool: the thread blocks
        // until the process ends, and a deadline may still be armed
        // during static teardown.
        static DeadlineTimer *timer = new DeadlineTimer();
        return *timer;
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            const Clock::time_point now = Clock::now();
            while (!pending.empty() && pending.begin()->first <= now) {
                pending.begin()->second->token_.requestStop();
                pending.erase(pending.begin());
            }
            // A deadline destroyed since the last sleep costs at most
            // one early wake-up that finds nothing due.
            sleeping_until = pending.empty() ? Clock::time_point::max()
                                             : pending.begin()->first;
            if (pending.empty())
                wake.wait(lock);
            else
                wake.wait_until(lock, sleeping_until);
        }
    }
};

Deadline::Deadline(StopToken &token, double seconds) : token_(token)
{
    if (seconds <= 0.0 || seconds > 1e9)
        return;
    at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    armed_ = true;
    DeadlineTimer &timer = DeadlineTimer::shared();
    std::lock_guard<std::mutex> lock(timer.mutex);
    timer.pending.emplace(at_, this);
    if (at_ < timer.sleeping_until) {
        timer.sleeping_until = at_;
        timer.wake.notify_one();
    }
}

Deadline::~Deadline()
{
    if (!armed_)
        return;
    DeadlineTimer &timer = DeadlineTimer::shared();
    std::lock_guard<std::mutex> lock(timer.mutex);
    timer.pending.erase({at_, this});
}

} // namespace hyqsat
