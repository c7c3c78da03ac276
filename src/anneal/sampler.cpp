#include "anneal/sampler.h"

#include "embed/hyqsat_embedder.h"
#include "util/logging.h"

namespace hyqsat::anneal {

namespace {

/** The slot riding on the request's cached embed result, if any. */
const embed::CompiledSlot *
requestSlot(const SampleRequest &request)
{
    return request.embedded ? &request.embedded->compiled : nullptr;
}

} // namespace

AnnealMetrics
AnnealMetrics::resolve(MetricsRegistry *registry)
{
    AnnealMetrics m;
    if (!registry)
        return m;
    m.sweeps = registry->counter("anneal.sweeps");
    m.flips_attempted = registry->counter("anneal.flips.attempted");
    m.flips_accepted = registry->counter("anneal.flips.accepted");
    m.reads = registry->counter("anneal.reads");
    m.read_groups = registry->counter("anneal.read_groups");
    m.sample_timer = registry->timer("anneal.sample");
    return m;
}

QaSampler::QaSampler(const topology::Topology &graph,
                     QuantumAnnealer::Options opts, std::string name,
                     MetricsRegistry *metrics)
    : annealer_(graph, opts), name_(std::move(name)),
      metrics_(AnnealMetrics::resolve(metrics))
{
}

AnnealSample
QaSampler::sample(const SampleRequest &request)
{
    MetricTimer::Scope scope(metrics_.sample_timer);
    const embed::CompiledSlot *slot = requestSlot(request);
    AnnealSample out =
        name_ == "qa"
            ? annealer_.sample(*request.problem, *request.embedding, slot)
            : annealer_.sampleLogical(*request.problem, slot);
    metrics_.record(annealer_.lastRunStats());
    return out;
}

const std::vector<std::string> &
samplerNames()
{
    static const std::vector<std::string> names = {"qa", "logical",
                                                    "sa"};
    return names;
}

std::unique_ptr<Sampler>
makeSampler(const SamplerSpec &spec, const topology::Topology &graph)
{
    const std::string &name = spec.name;
    if (name != "qa" && name != "logical" && name != "sa")
        fatal("unknown sampler backend '%s' (known: qa, logical, sa)",
              name.c_str());
    QuantumAnnealer::Options opts = spec.annealer;
    if (name == "sa") {
        // Plain SA over the logical Ising model, as dwave-neal runs
        // it: no control noise, no readout error, one anneal.
        opts.noise.coefficient_sigma = 0.0;
        opts.noise.readout_flip_prob = 0.0;
        opts.attempts = 1;
    }
    auto device = std::make_unique<QaSampler>(graph, opts, name,
                                              spec.metrics);
    device->annealer().setStopToken(spec.stop);
    return device;
}

} // namespace hyqsat::anneal
