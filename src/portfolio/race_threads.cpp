#include "portfolio/race_threads.h"

#include <utility>

namespace hyqsat::portfolio {

RaceThreads &
RaceThreads::shared()
{
    // Leaked on purpose, like anneal::WorkPool: parked threads block
    // until the process ends, and a race may still run during static
    // teardown.
    static RaceThreads *threads = new RaceThreads();
    return *threads;
}

void
RaceThreads::run(std::vector<std::function<void()>> tasks,
                 const std::function<void()> &here)
{
    Run run;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Grow before handing out any task, so a failed thread start
        // throws while no task references this frame yet.
        while (idle_.size() < tasks.size()) {
            threads_.reserve(threads_.size() + 1);
            idle_.reserve(idle_.size() + 1);
            auto parked = std::make_unique<Parked>();
            Parked *const p = parked.get();
            p->thread = std::thread([this, p] { loop(*p); });
            threads_.push_back(std::move(parked));
            idle_.push_back(p);
        }
        run.pending = static_cast<int>(tasks.size());
        for (std::function<void()> &task : tasks) {
            // The most recently parked thread is the warmest.
            Parked *const p = idle_.back();
            idle_.pop_back();
            p->task = std::move(task);
            p->run = &run;
            p->wake.notify_one();
        }
    }

    std::exception_ptr error;
    try {
        here();
    } catch (...) {
        error = std::current_exception();
    }

    // The tasks reference the caller's frame: wait for every one
    // even when here() threw.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&run] { return run.pending == 0; });
    if (!error)
        error = run.error;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
RaceThreads::loop(Parked &self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        self.wake.wait(lock, [&self] { return self.task != nullptr; });
        std::function<void()> task = std::move(self.task);
        self.task = nullptr;
        Run *const run = self.run;
        lock.unlock();

        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        task = nullptr; // drop the captures before parking

        lock.lock();
        if (error && !run->error)
            run->error = error;
        // Park before reporting, so the next race finds this thread
        // idle instead of starting another.
        idle_.push_back(&self);
        if (--run->pending == 0)
            done_.notify_all();
    }
}

} // namespace hyqsat::portfolio
