#include "anneal/batch_sampler.h"

#include <algorithm>

#include "anneal/work_pool.h"
#include "embed/hyqsat_embedder.h"

namespace hyqsat::anneal {

namespace {

/** Distinct, well-separated per-worker seed stream. */
std::uint64_t
workerSeed(std::uint64_t base, int index)
{
    // Worker 0 keeps the base seed so batch_samples=1 reproduces the
    // plain QaSampler stream exactly.
    return base + static_cast<std::uint64_t>(index) *
                      0x9e3779b97f4a7c15ull;
}

} // namespace

BatchSampler::BatchSampler(const chimera::ChimeraGraph &graph,
                           Options opts)
    : opts_(opts), metrics_(AnnealMetrics::resolve(opts.metrics))
{
    const int n = std::clamp(opts_.samples, 1, 16);
    opts_.samples = n;
    annealers_.reserve(n);
    results_.resize(n);
    for (int i = 0; i < n; ++i) {
        QuantumAnnealer::Options a = opts_.annealer;
        a.seed = workerSeed(opts_.annealer.seed, i);
        annealers_.push_back(
            std::make_unique<QuantumAnnealer>(graph, a));
        annealers_.back()->setStopToken(opts_.stop);
    }
}

AnnealSample
BatchSampler::compute(const SampleRequest &request)
{
    MetricTimer::Scope scope(metrics_.sample_timer);
    const int n = numWorkers();
    const embed::CompiledSlot *slot =
        request.embedded ? &request.embedded->compiled : nullptr;

    // Each worker samples with its own annealer (and Rng), so no
    // state is shared during the round — except the compiled-model
    // slot, which is internally synchronized (first compile wins).
    WorkPool::shared().runIndexed(n, [&](int i) {
        if (request.use_embedding) {
            results_[i] = annealers_[i]->sample(*request.problem,
                                                *request.embedding,
                                                slot);
        } else {
            results_[i] =
                annealers_[i]->sampleLogical(*request.problem, slot);
        }
    });

    // The fan-out barrier has passed: every annealer is quiescent, so
    // reading its stats (and recording from this one thread) is safe.
    SaStats total;
    for (const auto &a : annealers_) {
        const SaStats &s = a->lastRunStats();
        total.sweeps += s.sweeps;
        total.flips_attempted += s.flips_attempted;
        total.flips_accepted += s.flips_accepted;
        total.reads += s.reads;
    }
    metrics_.record(total);

    // Best clause-space energy wins; the first worker breaks ties so
    // the result is independent of completion order.
    int best = 0;
    for (int i = 1; i < n; ++i) {
        if (results_[i].clause_energy < results_[best].clause_energy)
            best = i;
    }
    AnnealSample out = results_[best];

    // Device model: N consecutive anneal-readout cycles (the same
    // schedule sampleMajorityVote charges), regardless of the host
    // running them in parallel.
    out.device_time_us = opts_.annealer.timing.sampleTimeUs(n);
    int breaks = 0;
    for (const auto &r : results_) {
        breaks += r.chain_breaks;
        out.cancelled |= r.cancelled;
    }
    out.chain_breaks = breaks;
    return out;
}

} // namespace hyqsat::anneal
