/**
 * @file
 * Pluggable sampler interface: the contract between the hybrid loop
 * and whatever device (real or simulated) produces annealing samples.
 *
 * A sampler takes one embedded (or logical) problem and blocks until
 * its sample is ready: the paper's loop applies every sample to the
 * warm-up iteration that asked for it (§III). See DESIGN.md "Sampler
 * backends". A sampler is used from one thread; it owns its Rng,
 * which is NOT thread-safe and must never be shared across threads.
 */

#ifndef HYQSAT_ANNEAL_SAMPLER_H
#define HYQSAT_ANNEAL_SAMPLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anneal/annealer.h"
#include "embed/embedding.h"
#include "qubo/encoder.h"
#include "topology/topology.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hyqsat::embed {
struct QueueEmbedResult;
}

namespace hyqsat::anneal {

/**
 * Resolved handles for the anneal.* metrics. All null when no
 * registry is attached (the one-branch-when-disabled contract);
 * resolve() binds them once at sampler construction.
 */
struct AnnealMetrics
{
    Counter *sweeps = nullptr;
    Counter *flips_attempted = nullptr;
    Counter *flips_accepted = nullptr;
    Counter *reads = nullptr;
    Counter *read_groups = nullptr; ///< parallel lockstep groups

    /** Host seconds spent producing samples ("anneal.sample"). */
    MetricTimer *sample_timer = nullptr;

    static AnnealMetrics resolve(MetricsRegistry *registry);

    /** Record one sample's work counters. */
    void
    record(const SaStats &stats) const
    {
        metricInc(sweeps, stats.sweeps);
        metricInc(flips_attempted, stats.flips_attempted);
        metricInc(flips_accepted, stats.flips_accepted);
        metricInc(reads, stats.reads);
        metricInc(read_groups, stats.read_groups);
    }
};

/**
 * One sampling job. The request holds shared (non-null) references to
 * the problem and embedding, so the hybrid loop aliases its cached
 * frontend result instead of deep-copying the encoded problem into
 * every request.
 */
struct SampleRequest
{
    std::shared_ptr<const qubo::EncodedProblem> problem;
    std::shared_ptr<const embed::Embedding> embedding;

    /**
     * The cached embed result that owns @p problem / @p embedding,
     * when the submitter has one (the hybrid pipeline's
     * QueueEmbedCache entry). Carries the CompiledSlot where
     * samplers memoize the compiled sampling form, so a frontend
     * cache hit also skips the annealer's model rebuild. Optional —
     * samplers must work (just compile per call) when null.
     */
    std::shared_ptr<const embed::QueueEmbedResult> embedded;
};

/** Abstract sampling backend. */
class Sampler
{
  public:
    virtual ~Sampler() = default;

    /** Stable backend name (the --sampler= spelling). */
    virtual const char *name() const = 0;

    /** One blocking sample. */
    virtual AnnealSample sample(const SampleRequest &request) = 0;
};

/**
 * The QuantumAnnealer device model behind the Sampler interface, one
 * class for every backend name. "qa" (the default) samples through
 * the request's embedding; any other name samples the ideal
 * all-to-all device and ignores the embedding. makeSampler() builds
 * "logical" from the given options and "sa" from the same options
 * with the noise off and one attempt.
 */
class QaSampler : public Sampler
{
  public:
    QaSampler(const topology::Topology &graph,
              QuantumAnnealer::Options opts, std::string name = "qa",
              MetricsRegistry *metrics = nullptr);

    const char *name() const override { return name_.c_str(); }

    AnnealSample sample(const SampleRequest &request) override;

    QuantumAnnealer &annealer() { return annealer_; }

  private:
    QuantumAnnealer annealer_;
    std::string name_;
    AnnealMetrics metrics_;
};

/**
 * Everything makeSampler() needs to build a backend by name:
 *   "qa"       QuantumAnnealer device model through the embedding
 *   "logical"  ideal all-to-all device (no embedding)
 *   "sa"       the logical device with its noise off and one attempt:
 *              plain SA over the logical Ising model
 * Best-of-N is annealer.num_reads on any of them.
 */
struct SamplerSpec
{
    std::string name = "qa";
    QuantumAnnealer::Options annealer;

    /**
     * Cooperative stop token; nullptr = none. Every backend polls it
     * once per SA sweep (SaOptions::stop), so a running sample ends
     * within one sweep of a trip and comes back marked
     * AnnealSample::cancelled.
     */
    const StopToken *stop = nullptr;

    /**
     * Registry receiving the anneal.* counters and the anneal.sample
     * timer (not owned; must outlive the sampler). nullptr disables
     * recording at one branch per site.
     */
    MetricsRegistry *metrics = nullptr;
};

/** Build the named backend; fatal() on a name samplerNames() lacks. */
std::unique_ptr<Sampler> makeSampler(const SamplerSpec &spec,
                                     const topology::Topology &graph);

/** The backend names makeSampler() accepts: qa, logical, sa. */
const std::vector<std::string> &samplerNames();

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_SAMPLER_H
