#include "core/hybrid_solver.h"

#include <cmath>

#include "core/session.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hyqsat::core {

HybridSolver::HybridSolver(const HybridConfig &config)
    : config_(config),
      graph_(topology::Topology::shared(
          config.topology, config.chimera_rows, config.chimera_cols,
          config.chimera_shore))
{
}

std::unique_ptr<Session>
HybridSolver::openSession() const
{
    return std::unique_ptr<Session>(
        new Session(config_, graph_, /*one_shot=*/nullptr));
}

std::uint64_t
HybridSolver::estimateIterations(int num_vars, int num_clauses)
{
    // Empirical fit to the scale of Table I's classic-CDCL iteration
    // counts on random 3-SAT (only sqrt(K) matters downstream):
    // K ~ m * exp(0.012 n), clamped to a sane range.
    const double k = static_cast<double>(std::max(num_clauses, 16)) *
                     std::exp(0.012 * static_cast<double>(num_vars));
    return static_cast<std::uint64_t>(std::min(k, 1e12));
}

HybridResult
HybridSolver::solve(const sat::Cnf &formula)
{
    if (!formula.isThreeSat()) {
        fatal("HybridSolver requires 3-SAT input (longest clause has "
              "%d literals); convert with sat::toThreeSat first",
              formula.maxClauseSize());
    }
    // The session reads the formula in place: a copy of a few
    // thousand clauses measurably slows a portfolio race. Its
    // registry merges into config_.metrics when it closes, on the way
    // out of this call.
    Session session(config_, graph_, &formula);
    return session.solve();
}

HybridResult
solveClassicCdcl(const sat::Cnf &formula, const sat::SolverOptions &opts,
                 const StopToken *stop, MetricsRegistry *metrics)
{
    Timer timer;
    HybridResult result;
    sat::Solver solver(opts);
    solver.attachMetrics(metrics);
    if (stop)
        solver.setStopToken(stop);
    if (!solver.loadCnf(formula)) {
        result.status = sat::l_False;
        result.stats = solver.stats();
        result.time.cdcl_s = timer.seconds();
    } else {
        result.status = solver.solve();
        result.stats = solver.stats();
        if (result.status.isTrue())
            result.model = solver.boolModel();
        result.time.cdcl_s = timer.seconds();
    }
    if (metrics) {
        metrics->timer("hybrid.total")->add(result.time.cdcl_s);
        metrics->timer("hybrid.cdcl")->add(result.time.cdcl_s);
    }
    return result;
}

} // namespace hyqsat::core
