/**
 * @file
 * Long-lived threads for portfolio races. A race hands each of its
 * slots (and its watchdog) to a parked thread instead of creating
 * and joining one per slot, so a race pays a condition-variable wake
 * instead of a thread start, and its workers run on threads whose
 * stacks and allocator caches are already warm.
 *
 * The set grows on demand and never shrinks: a task always gets a
 * thread of its own, so every slot of every concurrent race runs at
 * the same time. That is why anneal::WorkPool cannot do this job:
 * its runIndexed may start an index only once another has returned.
 * Idle threads block on their own condition variable; none spins.
 */

#ifndef HYQSAT_PORTFOLIO_RACE_THREADS_H
#define HYQSAT_PORTFOLIO_RACE_THREADS_H

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hyqsat::portfolio {

/** Process-wide set of parked race threads (see file comment). */
class RaceThreads
{
  public:
    /** The process-wide instance (created on first use). */
    static RaceThreads &shared();

    RaceThreads(const RaceThreads &) = delete;
    RaceThreads &operator=(const RaceThreads &) = delete;

    /**
     * Start every task of @p tasks on a parked thread of its own
     * (a new one when none is parked), run @p here on the calling
     * thread, then return once every task has returned and its
     * thread is parked again. An exception from any of them is
     * rethrown here after that wait.
     */
    void run(std::vector<std::function<void()>> tasks,
             const std::function<void()> &here);

  private:
    /** Completion state of one run() call, guarded by mutex_. */
    struct Run
    {
        int pending = 0;
        std::exception_ptr error;
    };

    /** One long-lived thread and its hand-off slot. */
    struct Parked
    {
        std::function<void()> task; ///< set by run(), guarded by mutex_
        Run *run = nullptr;         ///< guarded by mutex_
        std::condition_variable wake;
        std::thread thread;
    };

    RaceThreads() = default;
    void loop(Parked &self);

    std::mutex mutex_;
    std::condition_variable done_; ///< a Run's pending reached 0
    std::vector<std::unique_ptr<Parked>> threads_;
    std::vector<Parked *> idle_; ///< parked, most recent last
};

} // namespace hyqsat::portfolio

#endif // HYQSAT_PORTFOLIO_RACE_THREADS_H
