/**
 * @file
 * Best-of-N batch sampler: each of N independently seeded
 * QuantumAnnealers samples every submission, fanned out over the
 * process-wide WorkPool, and the lowest clause-space energy wins
 * (ties resolved by worker index for determinism).
 *
 * This models a multi-read device schedule — the reported device
 * time is N consecutive anneal-readout cycles
 * (TimingModel::sampleTimeUs(N)) — while the host-side cost is
 * amortized across cores. Per-worker results are deterministic
 * regardless of which pool thread runs which worker: each worker
 * owns its annealer (and Rng), and the submitting thread joins the
 * fan-out barrier before reading anything.
 */

#ifndef HYQSAT_ANNEAL_BATCH_SAMPLER_H
#define HYQSAT_ANNEAL_BATCH_SAMPLER_H

#include <memory>
#include <vector>

#include "anneal/sampler.h"

namespace hyqsat::anneal {

/** Pool-fan-out best-of-N sampler. */
class BatchSampler : public SyncSampler
{
  public:
    struct Options
    {
        /** Workers = independent seeds raced (clamped to [1, 16]). */
        int samples = 4;

        QuantumAnnealer::Options annealer;

        /** anneal.* metrics sink (see SamplerSpec::metrics). */
        MetricsRegistry *metrics = nullptr;

        /** Handed to every worker annealer (SamplerSpec::stop). */
        const StopToken *stop = nullptr;
    };

    BatchSampler(const chimera::ChimeraGraph &graph, Options opts);

    const char *name() const override { return "batch"; }

    int numWorkers() const
    {
        return static_cast<int>(annealers_.size());
    }

  protected:
    AnnealSample compute(const SampleRequest &request) override;

  private:
    Options opts_;
    AnnealMetrics metrics_;
    std::vector<std::unique_ptr<QuantumAnnealer>> annealers_;
    std::vector<AnnealSample> results_;
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_BATCH_SAMPLER_H
