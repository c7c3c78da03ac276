/**
 * @file
 * Reproduces Figure 8: QA energy distributions of satisfiable vs
 * unsatisfiable problems, the Gaussian Naive Bayes fit and the 90%
 * confidence cut points that define the backend's intervals.
 */

#include <cstdio>

#include "bench/common.h"
#include "embed/hyqsat_embedder.h"
#include "gen/random_sat.h"
#include "sat/solver.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyqsat;

int
main()
{
    std::printf("=== Figure 8: QA energy distribution and GNB fit "
                "===\n");
    const int per_class = bench::fullScale() ? 1000 : 150;
    // The paper uses 50-160 clauses on the physical 2000Q (capacity
    // ~170); our reimplemented embedder saturates near 45 clauses,
    // so the distribution is collected over 20-45 clause problems -
    // same protocol, scaled to the substrate (see EXPERIMENTS.md).
    std::printf("(%d problems per class, 20-45 clauses each)\n",
                per_class);

    const auto graph = chimera::ChimeraGraph::dwave2000q();
    anneal::QuantumAnnealer annealer(
        graph, anneal::QuantumAnnealer::Options::dwave2000q());

    std::vector<double> energies;
    std::vector<bool> satisfiable;
    Rng rng(0xf8);
    int made_sat = 0, made_unsat = 0;
    int guard = 0;
    while ((made_sat < per_class || made_unsat < per_class) &&
           ++guard < 200 * per_class) {
        // The paper draws 50-200 variables and 50-160 clauses; to
        // label instances exactly we draw from regimes with known
        // status and verify with the CDCL solver.
        const bool want_sat = made_sat < made_unsat ||
                              (made_sat < per_class &&
                               made_unsat >= per_class);
        const int clauses = 20 + static_cast<int>(rng.below(26));
        sat::Cnf cnf;
        if (want_sat) {
            const int vars = clauses / 2 + rng.below(50);
            cnf = gen::plantedRandom3Sat(
                std::max(vars, 10), clauses, rng);
        } else {
            const int vars =
                std::max(6, clauses / 8 + static_cast<int>(
                                              rng.below(4)));
            cnf = gen::uniformRandom3Sat(vars, clauses, rng);
        }
        sat::Solver check;
        const bool is_sat =
            check.loadCnf(cnf) && check.solve().isTrue();
        if (is_sat && made_sat >= per_class)
            continue;
        if (!is_sat && made_unsat >= per_class)
            continue;

        const std::vector<sat::LitVec> queue(cnf.clauses().begin(),
                                             cnf.clauses().end());
        embed::HyQsatEmbedder embedder(graph);
        const auto fx = embedder.embedQueue(queue);
        if (!fx.all_embedded)
            continue; // Fig. 8 uses fully embedded problems
        const auto sample = annealer.sample(fx.problem, fx.embedding);
        energies.push_back(sample.clause_energy);
        satisfiable.push_back(is_sat);
        (is_sat ? made_sat : made_unsat)++;
    }

    // Histogram of both classes.
    double max_e = 0;
    for (double e : energies)
        max_e = std::max(max_e, e);
    Histogram sat_hist(0, max_e + 1, 12), unsat_hist(0, max_e + 1, 12);
    for (std::size_t i = 0; i < energies.size(); ++i)
        (satisfiable[i] ? sat_hist : unsat_hist).add(energies[i]);

    Table table;
    table.setHeader({"Energy bin", "SAT %", "UNSAT %"});
    for (std::size_t b = 0; b < sat_hist.bins(); ++b) {
        table.addRow({Table::num(sat_hist.binCenter(b), 1),
                      Table::num(100 * sat_hist.binFraction(b), 1),
                      Table::num(100 * unsat_hist.binFraction(b), 1)});
    }
    table.print();

    bayes::EnergyClassifier classifier;
    classifier.fit(energies, satisfiable, 0.9);
    std::printf("\nGNB fit: near-satisfiable cut = %.2f, "
                "near-unsatisfiable cut = %.2f (paper: 4.5 and 8 on "
                "D-Wave 2000Q)\n",
                classifier.nearSatCut(), classifier.nearUnsatCut());
    std::printf("GNB training accuracy: %.2f%%\n",
                100.0 * classifier.model().accuracy(
                            [&] {
                                std::vector<std::vector<double>> f;
                                for (double e : energies)
                                    f.push_back({e});
                                return f;
                            }(),
                            [&] {
                                std::vector<int> l;
                                for (bool s : satisfiable)
                                    l.push_back(s ? 1 : 0);
                                return l;
                            }()));
    std::printf("\nShape to check: SAT mass concentrated near 0, "
                "UNSAT mass shifted right, cuts in between.\n");
    return 0;
}
