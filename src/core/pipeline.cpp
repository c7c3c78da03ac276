#include "core/pipeline.h"

#include "util/timer.h"

namespace hyqsat::core {

SamplePipeline::SamplePipeline(const Frontend &frontend,
                               anneal::Sampler &sampler, Rng &rng,
                               MetricsRegistry *metrics,
                               const StopToken *stop)
    : frontend_(frontend), sampler_(sampler), rng_(rng), stop_(stop)
{
    if (!metrics) {
        own_metrics_ = std::make_unique<MetricsRegistry>();
        metrics = own_metrics_.get();
    }
    m_submitted_ = metrics->counter("pipeline.submitted");
    m_cancelled_ = metrics->counter("pipeline.cancelled");
    m_chain_breaks_ = metrics->counter("pipeline.chain_breaks");
    m_frontend_s_ = metrics->timer("pipeline.frontend");
    m_host_sample_s_ = metrics->timer("pipeline.host_sample");
    m_device_s_ = metrics->timer("pipeline.device");
}

PipelineStats
SamplePipeline::stats() const
{
    PipelineStats s;
    s.submitted = static_cast<int>(m_submitted_->value());
    s.cancelled = static_cast<int>(m_cancelled_->value());
    s.chain_breaks = static_cast<int>(m_chain_breaks_->value());
    s.frontend_s = m_frontend_s_->seconds();
    s.host_sample_s = m_host_sample_s_->seconds();
    s.device_s = m_device_s_->seconds();
    return s;
}

void
SamplePipeline::refreshCache(const sat::Solver &solver,
                             std::uint64_t conflicts)
{
    if (cache_ && cache_conflicts_ == conflicts)
        return;
    auto fe = std::make_shared<FrontendResult>(
        frontend_.run(solver, rng_, workspace_));
    m_frontend_s_->add(fe->seconds);
    cache_ = std::move(fe);
    cache_conflicts_ = conflicts;
}

std::optional<ReadySample>
SamplePipeline::step(const sat::Solver &solver, std::uint64_t conflicts)
{
    refreshCache(solver, conflicts);
    if (cache_->embedded_clauses.empty())
        return std::nullopt;
    if (stop_ && stop_->stopRequested()) {
        // The race is over: no compile, no anneal, no readout.
        m_cancelled_->add();
        return std::nullopt;
    }

    // Aliasing shared_ptrs: the request points into the cached
    // frontend result instead of deep-copying problem/embedding.
    anneal::SampleRequest request;
    request.problem = std::shared_ptr<const qubo::EncodedProblem>(
        cache_->embedded, &cache_->embedded->problem);
    request.embedding = std::shared_ptr<const embed::Embedding>(
        cache_->embedded, &cache_->embedded->embedding);
    // Hand the sampler the owning embed result too: its
    // CompiledSlot memoizes the compiled sampling form, so a cache
    // hit here also skips the annealer's model rebuild.
    request.embedded = cache_->embedded;

    m_submitted_->add();
    const Timer host;
    anneal::AnnealSample sample = sampler_.sample(request);
    m_host_sample_s_->add(host.seconds());
    if (sample.cancelled) {
        // A partial anneal: no device readout to charge, no answer
        // to apply.
        m_cancelled_->add();
        return std::nullopt;
    }

    m_device_s_->add(sample.device_time_us * 1e-6);
    if (sample.chain_breaks > 0)
        m_chain_breaks_->add(
            static_cast<std::uint64_t>(sample.chain_breaks));
    return ReadySample{cache_, std::move(sample)};
}

} // namespace hyqsat::core
