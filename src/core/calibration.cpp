#include "core/calibration.h"

#include "embed/hyqsat_embedder.h"
#include "gen/random_sat.h"
#include "sat/solver.h"
#include "util/logging.h"

namespace hyqsat::core {

CalibrationResult
calibrateEnergyClassifier(anneal::QuantumAnnealer &annealer,
                          const topology::Topology &graph,
                          const CalibrationOptions &opts)
{
    CalibrationResult result;
    Rng rng(opts.seed);

    const int span = std::max(opts.max_clauses - opts.min_clauses, 1);
    int made_sat = 0, made_unsat = 0, guard = 0;
    const int budget = 400 * opts.problems_per_class;
    while ((made_sat < opts.problems_per_class ||
            made_unsat < opts.problems_per_class) &&
           ++guard < budget) {
        const bool want_sat = made_sat <= made_unsat;
        const int clauses =
            opts.min_clauses + static_cast<int>(rng.below(span + 1));
        sat::Cnf cnf;
        if (want_sat) {
            // Planted instances: satisfiable by construction but
            // still verified below.
            cnf = gen::plantedRandom3Sat(
                10 + clauses / 2 + static_cast<int>(rng.below(20)),
                clauses, rng);
        } else {
            // Heavily over-constrained: almost surely unsatisfiable.
            cnf = gen::uniformRandom3Sat(
                std::max(5, clauses / 8), clauses, rng);
        }
        sat::Solver check;
        const bool is_sat =
            check.loadCnf(cnf) && check.solve().isTrue();
        if ((is_sat ? made_sat : made_unsat) >=
            opts.problems_per_class) {
            continue;
        }

        embed::HyQsatEmbedder embedder(graph);
        const std::vector<sat::LitVec> queue(cnf.clauses().begin(),
                                             cnf.clauses().end());
        const auto fx = embedder.embedQueue(queue);
        if (!fx.all_embedded)
            continue; // calibration uses fully embedded problems

        const auto sample = annealer.sample(fx.problem, fx.embedding);
        result.energies.push_back(opts.use_weighted_energy
                                      ? sample.weighted_energy
                                      : sample.clause_energy);
        result.satisfiable.push_back(is_sat);
        (is_sat ? made_sat : made_unsat)++;
    }
    if (result.energies.size() < 8) {
        fatal("calibrateEnergyClassifier: collected only %zu "
              "samples; widen the clause range or the chip",
              result.energies.size());
    }

    result.classifier.fit(result.energies, result.satisfiable,
                          opts.confidence);

    std::vector<std::vector<double>> features;
    std::vector<int> labels;
    for (std::size_t i = 0; i < result.energies.size(); ++i) {
        features.push_back({result.energies[i]});
        labels.push_back(result.satisfiable[i] ? 1 : 0);
    }
    result.accuracy =
        result.classifier.model().accuracy(features, labels);
    return result;
}

} // namespace hyqsat::core
