/**
 * @file
 * Quantum-annealer facade: the component that plays the role of the
 * D-Wave 2000Q in this reproduction. It programs an embedded (or
 * logical) Ising problem, draws one sample with a configurable noise
 * model, de-embeds chains by majority vote and reports the
 * clause-space energy that the HyQSAT backend interprets, together
 * with modeled device time.
 */

#ifndef HYQSAT_ANNEAL_ANNEALER_H
#define HYQSAT_ANNEAL_ANNEALER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "anneal/noise.h"
#include "anneal/sa_sampler.h"
#include "anneal/timing.h"
#include "embed/compiled_slot.h"
#include "embed/embedding.h"
#include "qubo/encoder.h"
#include "topology/topology.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace hyqsat::anneal {

/**
 * Everything about a programmed problem that survives between
 * samples: the compiled flat Ising form (CSR + chain groups) and the
 * ordered control-noise replay schedule. Built once per problem and
 * memoized in the embed result's CompiledSlot; defined in
 * annealer.cpp.
 */
struct AnnealCompiled;

/** One annealer sample, already interpreted to logical space. */
struct AnnealSample
{
    /** Assignment of every problem node (variables + auxiliaries). */
    std::vector<bool> node_bits;

    /**
     * Clause-space energy: the unit objective (alpha = 1) value of
     * the de-embedded assignment. Zero iff every embedded clause is
     * satisfied with consistent auxiliaries; the backend's
     * confidence intervals live on this axis.
     */
    double clause_energy = 0.0;

    /**
     * Device-reported energy: the alpha-weighted (coefficient-
     * adjusted) objective at the de-embedded assignment. This is
     * the axis the coefficient adjustment lifts (Fig. 15); equal to
     * clause_energy when the adjustment is disabled.
     */
    double weighted_energy = 0.0;

    /** Energy of the physical (or logical) Ising problem sampled. */
    double physical_energy = 0.0;

    /** Chains whose qubits disagreed before majority vote. */
    int chain_breaks = 0;

    /** Modeled device wall-clock for this sample (microseconds). */
    double device_time_us = 0.0;

    /**
     * The sampler's stop token tripped mid-anneal: this is not a
     * finished sample and consumers must discard it (the hybrid
     * pipeline counts it as pipeline.cancelled).
     */
    bool cancelled = false;
};

/** Simulated quantum annealer. */
class QuantumAnnealer
{
  public:
    struct Options
    {
        NoiseModel noise = NoiseModel::dwave2000q();
        TimingModel timing;

        /**
         * Ferromagnetic intra-chain coupling strength, in units of
         * the hardware J range (applied as -chain_strength).
         */
        double chain_strength = 1.0;

        /**
         * Zero-temperature descent after the anneal. Both presets
         * below turn it on: a physical device also relaxes into a
         * local minimum of its noise-perturbed final Hamiltonian.
         */
        bool greedy_finish = false;

        /**
         * Internal anneal repetitions per sample; the lowest
         * clause-space energy wins. The noise-free simulator uses a
         * few attempts (the paper's simulator runs "with a long
         * timeout"); a noisy device models one shot.
         */
        int attempts = 1;

        /**
         * Independent annealing reads per internal anneal (the
         * device analogue of requesting num_reads samples and
         * keeping the best). 1 reproduces the single-chain annealer
         * exactly, including its RNG stream; reads beyond the first
         * run in lockstep groups on the shared WorkPool
         * (SaOptions::num_reads).
         */
        int num_reads = 1;

        std::uint64_t seed = 0x5eed0f2a;

        /** The §VI-B noise-free simulator: two attempts. */
        static Options simulator();

        /** The §VI-C noisy D-Wave 2000Q: one shot. */
        static Options dwave2000q();
    };

    QuantumAnnealer(const topology::Topology &graph, Options opts);

    /**
     * Program the embedded problem onto the hardware graph and draw
     * one sample (the HyQSAT flow: one sample per CDCL iteration).
     * When @p slot is given, the compiled sampling form is fetched
     * from (or parked in) it — pass the CompiledSlot of the cached
     * QueueEmbedResult that owns @p problem / @p embedding, so repeat
     * samples of a cached embedding skip the whole model rebuild.
     */
    AnnealSample sample(const qubo::EncodedProblem &problem,
                        const embed::Embedding &embedding,
                        const embed::CompiledSlot *slot = nullptr);

    /**
     * Sample the logical problem directly (ideal all-to-all device):
     * the "logical" backend, and with the noise off and one attempt
     * the "sa" backend. Same body as sample(), over one spin per
     * node; @p slot as there.
     */
    AnnealSample sampleLogical(const qubo::EncodedProblem &problem,
                               const embed::CompiledSlot *slot = nullptr);

    /**
     * The sampler sample() anneals for (@p problem, @p embedding):
     * the compiled physical model with its chain groups and one
     * control-noise draw applied (the draws sample() makes first).
     * It reads this annealer's noise buffers, so it is valid until
     * the next call that samples or programs. Lets benches time the
     * SA kernels on the models the frontend actually produces.
     */
    SaSampler programSampler(const qubo::EncodedProblem &problem,
                             const embed::Embedding &embedding);

    /**
     * Cooperative cancellation for every later sample: the token is
     * polled once per SA sweep (SaOptions::stop). A sample it cuts
     * short comes back marked AnnealSample::cancelled, with no
     * further attempts. nullptr (the default) = none.
     */
    void setStopToken(const StopToken *stop) { stop_ = stop; }

    /** Access the RNG (e.g. to reseed between experiments). */
    Rng &rng() { return rng_; }

    const Options &options() const { return opts_; }

    /**
     * Annealing work counters of the most recent sample() /
     * sampleLogical() call (summed over attempts and reads). Feeds
     * the anneal.* metrics.
     */
    const SaStats &lastRunStats() const { return run_stats_; }

  private:
    /** Gaussian control noise on a programmed coefficient. */
    double perturb(double value, double range);

    /**
     * Compile (or fetch from @p slot) the embedded physical form, or
     * the logical form when @p embedding is null.
     */
    std::shared_ptr<const AnnealCompiled>
    compiled(const qubo::EncodedProblem &problem,
             const embed::Embedding *embedding,
             const embed::CompiledSlot *slot);

    /**
     * The one sample body behind sample() and sampleLogical()
     * (@p embedding null): program the noise, anneal each attempt,
     * flip readouts, de-embed by majority vote and keep the attempt
     * with the lowest clause-space energy.
     */
    AnnealSample anneal(const qubo::EncodedProblem &problem,
                        const embed::Embedding *embedding,
                        const embed::CompiledSlot *slot);

    /**
     * Program one sample's device model: a sampler over @p cp with
     * the control noise re-drawn by replaying the compiled schedule
     * into the member buffers (base coefficients, and no draws, when
     * coefficient_sigma is zero — the seed-identical RNG stream
     * depends on drawing nothing).
     */
    SaSampler programCompiled(const AnnealCompiled &cp);

    const topology::Topology &graph_;
    Options opts_;
    Rng rng_;
    SaStats run_stats_;
    const StopToken *stop_ = nullptr;

    /** Per-sample noisy coefficient buffers (capacity reused). */
    std::vector<double> noisy_h_;
    std::vector<double> noisy_w_;
};

} // namespace hyqsat::anneal

#endif // HYQSAT_ANNEAL_ANNEALER_H
