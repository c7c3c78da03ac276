#include "anneal/work_pool.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace hyqsat::anneal {

namespace {

/** CPUs this process may run on (its affinity mask). */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

int
defaultThreads()
{
    if (const char *env = std::getenv("HYQSAT_POOL_THREADS")) {
        const std::string_view text(env);
        int threads = 0;
        const auto res = std::from_chars(
            text.data(), text.data() + text.size(), threads);
        if (res.ec == std::errc() &&
            res.ptr == text.data() + text.size() && threads >= 1 &&
            threads <= 64)
            return threads;
        std::fprintf(stderr,
                     "HYQSAT_POOL_THREADS=%s ignored: not a whole "
                     "number in [1, 64]\n",
                     env);
    }
    // Leave one CPU for the caller: runIndexed callers participate,
    // so a small pool only bounds parallelism, never correctness.
    return std::clamp(usableCpus() - 1, 0, 16);
}

} // namespace

WorkPool &
WorkPool::shared()
{
    // Leaked on purpose: samplers may be destroyed during static
    // teardown and must still be able to reach the pool; the threads
    // die with the process.
    static WorkPool *pool = new WorkPool(defaultThreads());
    return *pool;
}

WorkPool::WorkPool(int threads)
{
    threads_.reserve(std::max(threads, 0));
    for (int i = 0; i < threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkPool::~WorkPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
WorkPool::runOne(Batch &b, std::unique_lock<std::mutex> &lock)
{
    if (b.cancelled || b.next >= b.total)
        return false;
    const int index = b.next++;
    ++b.active;
    lock.unlock();
    try {
        (*b.fn)(index);
    } catch (...) {
        // Poison the batch so no further indices are claimed, and
        // wake the owner, whose unwind handler waits for the claims
        // already inside fn. (A throw on a pool thread still
        // escapes workerLoop and terminates — fn must only throw on
        // the runIndexed caller's own thread.)
        lock.lock();
        b.cancelled = true;
        --b.active;
        done_cv_.notify_all();
        throw;
    }
    lock.lock();
    --b.active;
    if (++b.done == b.total || (b.cancelled && b.active == 0))
        done_cv_.notify_all();
    return true;
}

void
WorkPool::unlink(Batch &b)
{
    for (auto it = batches_.begin(); it != batches_.end(); ++it) {
        if (*it == &b) {
            batches_.erase(it);
            break;
        }
    }
}

void
WorkPool::runIndexed(int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (n == 1 || threads_.empty()) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Batch batch;
    batch.fn = &fn;
    batch.total = n;

    std::unique_lock<std::mutex> lock(mutex_);
    batches_.push_back(&batch);
    work_cv_.notify_all();

    // Caller participation: claim indices until none are left, then
    // wait for helpers still running theirs. Guarantees progress
    // even when every pool thread is busy (nested fan-outs).
    try {
        while (runOne(batch, lock)) {
        }
        done_cv_.wait(lock, [&] { return batch.done == batch.total; });
    } catch (...) {
        // fn threw on this (the caller's) thread: runOne's handler
        // relocked and poisoned the batch, so helpers claim nothing
        // new. Wait out the claims still inside fn, then unlink the
        // stack-allocated batch before the frame unwinds — a
        // dangling deque entry would hand workers a dead pointer.
        done_cv_.wait(lock, [&] { return batch.active == 0; });
        unlink(batch);
        throw;
    }

    // The batch is drained (next == total), but may still sit in the
    // deque; remove it before the stack frame dies.
    unlink(batch);
}

void
WorkPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Select under the continuously-held lock, then run: runOne
        // unlocks while calling fn, which may grow/shrink batches_,
        // so no deque iterator may be live across it.
        Batch *pick = nullptr;
        for (Batch *b : batches_) {
            if (!b->cancelled && b->next < b->total) {
                pick = b;
                break;
            }
        }
        if (pick) {
            runOne(*pick, lock);
            continue;
        }
        if (shutdown_)
            return;
        work_cv_.wait(lock, [this] {
            if (shutdown_)
                return true;
            for (Batch *b : batches_)
                if (!b->cancelled && b->next < b->total)
                    return true;
            return false;
        });
    }
}

} // namespace hyqsat::anneal
