/**
 * @file
 * The sampling step between the CDCL iteration hook and a Sampler
 * backend. Owns the cached FrontendResult: the clause queue's
 * activity basis only changes at conflicts, so the frontend pass is
 * keyed by the solver's conflict count and reused across
 * conflict-free decision stretches. Every step takes one blocking
 * sample from that cached result, which the caller applies to the
 * same iteration (the paper's loop, §III).
 *
 * Cancellation: a sample the sampler's stop token cut short
 * (AnnealSample::cancelled) is a partial anneal, not an answer. It
 * is counted as pipeline.cancelled and dropped, so it never reaches
 * the backend. A step that finds the stop token already tripped
 * after its frontend pass skips the compile and the anneal
 * altogether and counts in pipeline.cancelled too: a losing race
 * worker returns without starting a sample nobody will read.
 */

#ifndef HYQSAT_CORE_PIPELINE_H
#define HYQSAT_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <optional>

#include "anneal/sampler.h"
#include "core/frontend.h"
#include "sat/solver.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hyqsat::core {

/**
 * Pipeline counters folded into HybridResult after a solve. This is
 * a *view* snapshotted from the metrics registry (stats()): the
 * registry is the single source of truth, the struct just gives the
 * hybrid loop and the tests a stable typed window onto it.
 */
struct PipelineStats
{
    int submitted = 0; ///< samples requested from the sampler
    int cancelled = 0; ///< cut short or skipped by the stop token

    double frontend_s = 0.0;    ///< queue + encode + embed host time
    double host_sample_s = 0.0; ///< device-simulation host time
    double device_s = 0.0;      ///< modeled device time, all samples
    int chain_breaks = 0;
};

/** A sample ready for backend interpretation. */
struct ReadySample
{
    /** Frontend pass the sample was built from. */
    std::shared_ptr<const FrontendResult> frontend;
    anneal::AnnealSample sample;
};

/** The iteration hook's sampling step. */
class SamplePipeline
{
  public:
    /**
     * @param metrics registry receiving the pipeline's counters and
     *        phase timers; nullptr uses a private registry so
     *        stats() is always available (single source of truth
     *        either way).
     * @param stop token polled between the frontend pass and the
     *        sample; nullptr = never stop.
     */
    SamplePipeline(const Frontend &frontend, anneal::Sampler &sampler,
                   Rng &rng, MetricsRegistry *metrics = nullptr,
                   const StopToken *stop = nullptr);

    /**
     * One sampling step at a decision iteration: refresh the
     * frontend cache when @p conflicts moved, then take one sample
     * from it. Returns nothing when no clause embedded, the stop
     * token tripped before the sample, or the sample was cut short.
     */
    std::optional<ReadySample> step(const sat::Solver &solver,
                                    std::uint64_t conflicts);

    /** Snapshot of the registry's pipeline.* metrics. */
    PipelineStats stats() const;

  private:
    void refreshCache(const sat::Solver &solver, std::uint64_t conflicts);

    const Frontend &frontend_;
    anneal::Sampler &sampler_;
    Rng &rng_;
    const StopToken *stop_;

    std::shared_ptr<const FrontendResult> cache_;
    std::uint64_t cache_conflicts_ = ~0ull;

    /**
     * Frontend fast-path buffers + embedding cache, reused across
     * every refresh this pipeline performs. Mutable state of the
     * pipeline, not of the (shared, const) Frontend.
     */
    FrontendWorkspace workspace_;

    /** Private fallback registry when the caller supplies none. */
    std::unique_ptr<MetricsRegistry> own_metrics_;

    // Resolved record handles (always non-null: the pipeline records
    // unconditionally; the one-branch contract applies to *callers*
    // that never construct a pipeline).
    Counter *m_submitted_;
    Counter *m_cancelled_;
    Counter *m_chain_breaks_;
    MetricTimer *m_frontend_s_;
    MetricTimer *m_host_sample_s_;
    MetricTimer *m_device_s_;
};

} // namespace hyqsat::core

#endif // HYQSAT_CORE_PIPELINE_H
