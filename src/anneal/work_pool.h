/**
 * @file
 * Small shared thread pool for host-side sampling parallelism: the
 * multi-read lockstep groups draw from one process-wide set of
 * threads instead of spawning their own.
 *
 * runIndexed(n, fn) runs fn(0..n-1), caller-participating. The
 * caller claims indices alongside the pool threads and only returns
 * once every index has finished, so nested use (a multi-read chain
 * whose lockstep part fans out groups) can never deadlock, and with
 * zero free pool threads the call degrades to a serial loop on the
 * caller.
 *
 * Pool size: one helper per CPU in the process's affinity mask but
 * one (the caller is the last), at most 16; a 1-CPU mask gets no
 * helpers. HYQSAT_POOL_THREADS overrides it with a whole number in
 * [1, 64]; any other value is reported once on stderr and ignored.
 */

#ifndef HYQSAT_ANNEAL_WORK_POOL_H
#define HYQSAT_ANNEAL_WORK_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hyqsat::anneal {

/** Process-wide work-stealing helper pool (see file comment). */
class WorkPool
{
  public:
    /** The shared process-wide instance (created on first use). */
    static WorkPool &shared();

    /** Dedicated pool with @p threads helpers (tests). */
    explicit WorkPool(int threads);
    ~WorkPool();

    WorkPool(const WorkPool &) = delete;
    WorkPool &operator=(const WorkPool &) = delete;

    /**
     * Run fn(i) for every i in [0, n). The caller participates:
     * indices are claimed from a shared atomic cursor by the caller
     * and any free pool threads; returns when all n calls finished.
     * @p fn must be safe to invoke concurrently for distinct i.
     */
    void runIndexed(int n, const std::function<void(int)> &fn);

    int numThreads() const { return static_cast<int>(threads_.size()); }

  private:
    /** One caller-participating fan-out in flight. */
    struct Batch
    {
        const std::function<void(int)> *fn = nullptr;
        int total = 0;
        int next = 0; ///< next unclaimed index (guarded by pool mutex)
        int done = 0; ///< finished calls (guarded by pool mutex)
        int active = 0; ///< claims currently inside fn (pool mutex)
        bool cancelled = false; ///< fn threw; no further claims
    };

    void workerLoop();

    /** Unlink @p b from batches_ (mutex must be held). */
    void unlink(Batch &b);

    /** Claim-and-run one index of @p b; true if one was claimed. */
    bool runOne(Batch &b, std::unique_lock<std::mutex> &lock);

    std::mutex mutex_;
    std::condition_variable work_cv_; ///< wakes pool threads
    std::condition_variable done_cv_; ///< wakes runIndexed callers
    std::deque<Batch *> batches_;     ///< open fan-outs (not owned)
    bool shutdown_ = false;
    std::vector<std::thread> threads_;
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_WORK_POOL_H
