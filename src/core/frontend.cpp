#include "core/frontend.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/timer.h"

namespace hyqsat::core {

Frontend::Frontend(const topology::Topology &graph,
                   const FrontendOptions &opts,
                   MetricsRegistry *metrics)
    : graph_(graph), opts_(opts)
{
    if (metrics) {
        runs_ = metrics->counter("frontend.runs");
        cache_hits_ = metrics->counter("frontend.cache.hits");
        cache_misses_ = metrics->counter("frontend.cache.misses");
        cache_evictions_ =
            metrics->counter("frontend.cache.evictions");
        unsat_incremental_ =
            metrics->counter("frontend.unsat.incremental");
        unsat_scans_ = metrics->counter("frontend.unsat.scans");
        cache_s_ = metrics->timer("frontend.cache");
        queue_s_ = metrics->timer("frontend.queue");
        encode_s_ = metrics->timer("frontend.encode");
        embed_s_ = metrics->timer("frontend.embed");
    }
}

FrontendResult
Frontend::run(const sat::Solver &solver, Rng &rng) const
{
    FrontendWorkspace ws;
    return run(solver, rng, ws);
}

FrontendResult
Frontend::run(const sat::Solver &solver, Rng &rng,
              FrontendWorkspace &ws) const
{
    Timer timer;
    FrontendResult result;
    metricInc(runs_);
    metricInc(solver.options().incremental_clause_tracking
                  ? unsat_incremental_
                  : unsat_scans_);

    generateClauseQueue(solver, opts_.queue, rng, ws.queue,
                        result.queue);
    // Stage the clause literals in place: the staging vectors keep
    // their capacity from earlier runs.
    ws.clauses.resize(result.queue.size());
    for (std::size_t i = 0; i < result.queue.size(); ++i) {
        const sat::LitVec &clause = solver.originalClause(result.queue[i]);
        ws.clauses[i].assign(clause.begin(), clause.end());
    }
    if (queue_s_)
        queue_s_->add(timer.seconds());
    if (result.queue.empty()) {
        // Invariant for the metrics contract: every run records
        // exactly one of hits/misses (an empty queue is a miss).
        metricInc(cache_misses_);
        result.embedded = std::make_shared<embed::QueueEmbedResult>();
        result.seconds = timer.seconds();
        return result;
    }

    std::shared_ptr<const embed::QueueEmbedResult> embedded;
    if (opts_.cache_embeddings) {
        const MetricTimer::Scope scope(cache_s_);
        ws.cache.setCapacity(static_cast<std::size_t>(
            std::max(opts_.cache_capacity, 1)));
        embedded = ws.cache.find(ws.clauses);
    }

    if (embedded) {
        metricInc(cache_hits_);
    } else {
        metricInc(cache_misses_);
        const Timer embed_timer;
        embed::HyQsatEmbedder embedder(graph_, opts_.embedder);
        embedded = std::make_shared<embed::QueueEmbedResult>(
            embedder.embedQueue(ws.clauses, ws.embedder));
        metricTime(encode_s_, embedded->encode_seconds);
        metricTime(embed_s_,
                   embed_timer.seconds() - embedded->encode_seconds);
        if (opts_.cache_embeddings) {
            const MetricTimer::Scope scope(cache_s_);
            if (ws.cache.insert(ws.clauses, embedded))
                metricInc(cache_evictions_);
        }
    }
    result.embedded = std::move(embedded);

    result.embedded_clauses.assign(
        result.queue.begin(),
        result.queue.begin() + result.embedded->embedded_clauses);

    // The queue workspace's unsat set was computed against this very
    // trail during queue generation; reusing its size here removes
    // what used to be a second full clause rescan.
    result.covers_all_unsatisfied =
        result.embedded->all_embedded &&
        result.queue.size() == ws.queue.unsat.size();

    result.seconds = timer.seconds();
    return result;
}

} // namespace hyqsat::core
