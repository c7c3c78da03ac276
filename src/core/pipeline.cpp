#include "core/pipeline.h"

#include <algorithm>

namespace hyqsat::core {

namespace {

/** Bucket edges 0|1|2|...|capacity for the occupancy histogram. */
std::vector<double>
occupancyBounds(int capacity)
{
    std::vector<double> bounds;
    bounds.reserve(static_cast<std::size_t>(std::max(capacity, 1)));
    for (int i = 0; i < std::max(capacity, 1); ++i)
        bounds.push_back(static_cast<double>(i) + 0.5);
    return bounds;
}

} // namespace

SamplePipeline::SamplePipeline(const Frontend &frontend,
                               anneal::Sampler &sampler, Rng &rng,
                               MetricsRegistry *metrics)
    : frontend_(frontend), sampler_(sampler), rng_(rng)
{
    if (!metrics) {
        own_metrics_ = std::make_unique<MetricsRegistry>();
        metrics = own_metrics_.get();
    }
    m_submitted_ = metrics->counter("pipeline.submitted");
    m_harvested_ = metrics->counter("pipeline.harvested");
    m_stale_ = metrics->counter("pipeline.stale_discarded");
    m_cancelled_ = metrics->counter("pipeline.cancelled");
    m_stalls_ = metrics->counter("pipeline.stalls");
    m_chain_breaks_ = metrics->counter("pipeline.chain_breaks");
    m_frontend_s_ = metrics->timer("pipeline.frontend");
    m_host_sample_s_ = metrics->timer("pipeline.host_sample");
    m_device_s_ = metrics->timer("pipeline.device");
    m_inflight_s_ = metrics->timer("pipeline.inflight");
    m_blocking_s_ = metrics->timer("pipeline.blocking");
    m_stall_span_s_ = metrics->timer("pipeline.stall_span");
    m_occupancy_ = metrics->histogram(
        "pipeline.occupancy", occupancyBounds(sampler.capacity()));
    trace_ = metrics->trace();
}

PipelineStats
SamplePipeline::stats() const
{
    PipelineStats s;
    s.submitted = static_cast<int>(m_submitted_->value());
    s.harvested = static_cast<int>(m_harvested_->value());
    s.stale_discarded = static_cast<int>(m_stale_->value());
    s.cancelled = static_cast<int>(m_cancelled_->value());
    s.stalls = static_cast<int>(m_stalls_->value());
    s.chain_breaks = static_cast<int>(m_chain_breaks_->value());
    s.frontend_s = m_frontend_s_->seconds();
    s.host_sample_s = m_host_sample_s_->seconds();
    s.device_s = m_device_s_->seconds();
    s.inflight_s = m_inflight_s_->seconds();
    s.blocking_s = m_blocking_s_->seconds();
    return s;
}

void
SamplePipeline::refreshCache(const sat::Solver &solver,
                             std::uint64_t epoch)
{
    if (cache_ && cache_epoch_ == epoch)
        return;
    auto fe = std::make_shared<FrontendResult>(
        frontend_.run(solver, rng_, workspace_));
    m_frontend_s_->add(fe->seconds);
    cache_ = std::move(fe);
    cache_epoch_ = epoch;
}

void
SamplePipeline::step(const sat::Solver &solver, std::uint64_t epoch,
                     std::vector<ReadySample> &ready)
{
    refreshCache(solver, epoch);

    if (!cache_->embedded_clauses.empty()) {
        if (static_cast<int>(inflight_.size()) < sampler_.capacity()) {
            // Aliasing shared_ptrs: the request pins the cached
            // frontend result (no deep copy of problem/embedding per
            // submission), and keeps it alive across cache refreshes
            // while the job is in flight.
            anneal::SampleRequest request;
            request.problem = std::shared_ptr<const qubo::EncodedProblem>(
                cache_->embedded, &cache_->embedded->problem);
            request.embedding = std::shared_ptr<const embed::Embedding>(
                cache_->embedded, &cache_->embedded->embedding);
            // Hand the sampler the owning embed result too: its
            // CompiledSlot memoizes the compiled sampling form, so a
            // cache hit here also skips the annealer's model rebuild.
            request.embedded = cache_->embedded;
            const std::uint64_t ticket =
                sampler_.submit(std::move(request));
            // The Timer starts after submit() returns so a
            // synchronous backend's compute time does not count as
            // overlap (the loop was blocked, nothing was hidden).
            inflight_.push_back(InFlight{ticket, epoch, cache_, Timer{}});
            m_submitted_->add();
            if (in_stall_) {
                // The stall span ends at the submit that got through.
                in_stall_ = false;
                const double span = stall_timer_.seconds();
                m_stall_span_s_->add(span);
                if (trace_) {
                    trace_->event(
                        "pipeline.stall_end",
                        {{"span_s", span},
                         {"epoch", static_cast<double>(epoch)}});
                }
            }
        } else {
            m_stalls_->add();
            if (!in_stall_) {
                in_stall_ = true;
                stall_timer_.reset();
                if (trace_) {
                    trace_->event(
                        "pipeline.stall_begin",
                        {{"epoch", static_cast<double>(epoch)},
                         {"inflight", static_cast<double>(
                                          inflight_.size())}});
                }
            }
        }
    }
    m_occupancy_->record(static_cast<double>(inflight_.size()));

    harvest(epoch, &ready);
}

void
SamplePipeline::notifyConflict(std::uint64_t epoch)
{
    if (inflight_.empty())
        return;
    harvest(epoch, nullptr);
}

void
SamplePipeline::harvest(std::uint64_t epoch,
                        std::vector<ReadySample> *ready)
{
    std::vector<anneal::SampleCompletion> done;
    sampler_.poll(done);
    for (auto &completion : done) {
        const auto it = std::find_if(
            inflight_.begin(), inflight_.end(), [&](const InFlight &f) {
                return f.ticket == completion.ticket;
            });
        if (it == inflight_.end())
            continue; // not ours (cannot happen with one pipeline)

        const double wall = it->since_submit.seconds();
        m_harvested_->add();
        m_inflight_s_->add(wall);
        m_host_sample_s_->add(completion.host_seconds);
        if (completion.sample.cancelled) {
            // A partial anneal: no device readout to charge, no
            // answer to apply.
            m_cancelled_->add();
            inflight_.erase(it);
            continue;
        }

        const double device_s = completion.sample.device_time_us * 1e-6;
        m_blocking_s_->add(std::max(0.0, device_s - wall));
        m_device_s_->add(device_s);
        if (completion.sample.chain_breaks > 0) {
            m_chain_breaks_->add(static_cast<std::uint64_t>(
                completion.sample.chain_breaks));
        }

        if (it->epoch != epoch || ready == nullptr) {
            m_stale_->add();
        } else {
            ready->push_back(ReadySample{
                it->frontend, std::move(completion.sample)});
        }
        inflight_.erase(it);
    }
}

} // namespace hyqsat::core
