/**
 * @file
 * Reproduces Figure 15: the coefficient adjustment's effect on
 * (a) the violating-band energy surface (exhaustive, small
 * problems) and (b) the confidence-interval overlap and GNB
 * accuracy when classifying noisy QA samples.
 */

#include <cstdio>

#include "bench/common.h"
#include "embed/hyqsat_embedder.h"
#include "gen/random_sat.h"
#include "qubo/gap.h"
#include "sat/solver.h"
#include "util/stats.h"
#include "util/table.h"

using namespace hyqsat;

namespace {

/** Collect noisy sample energies with / without the adjustment. */
struct Labelled
{
    std::vector<double> energies;
    std::vector<bool> satisfiable;
};

Labelled
collect(bool adjust, int per_class)
{
    const auto graph = chimera::ChimeraGraph::dwave2000q();
    auto qa = anneal::QuantumAnnealer::Options::dwave2000q();
    qa.noise.coefficient_sigma = 0.05;
    anneal::QuantumAnnealer annealer(graph, qa);

    Labelled out;
    Rng rng(adjust ? 0xad1 : 0xad2);
    int made_sat = 0, made_unsat = 0, guard = 0;
    while ((made_sat < per_class || made_unsat < per_class) &&
           ++guard < 400 * per_class) {
        const bool want_sat = made_sat <= made_unsat;
        const int clauses = 18 + static_cast<int>(rng.below(24));
        sat::Cnf cnf;
        if (want_sat) {
            cnf = gen::plantedRandom3Sat(
                10 + clauses / 2 + static_cast<int>(rng.below(20)),
                clauses, rng);
        } else {
            cnf = gen::uniformRandom3Sat(
                std::max(5, clauses / 8), clauses, rng);
        }
        sat::Solver check;
        const bool is_sat =
            check.loadCnf(cnf) && check.solve().isTrue();
        if ((is_sat ? made_sat : made_unsat) >= per_class)
            continue;

        embed::HyQsatEmbedderOptions eo;
        eo.encoder.adjust_coefficients = adjust;
        embed::HyQsatEmbedder embedder(graph, eo);
        const std::vector<sat::LitVec> queue(cnf.clauses().begin(),
                                             cnf.clauses().end());
        const auto fx = embedder.embedQueue(queue);
        if (!fx.all_embedded)
            continue;
        const auto sample = annealer.sample(fx.problem, fx.embedding);
        // The device reports the adjusted objective's energy: that
        // axis is what the coefficient adjustment separates.
        out.energies.push_back(sample.weighted_energy);
        out.satisfiable.push_back(is_sat);
        (is_sat ? made_sat : made_unsat)++;
    }
    return out;
}

double
gnbAccuracy(const Labelled &data)
{
    bayes::EnergyClassifier classifier;
    classifier.fit(data.energies, data.satisfiable, 0.9);
    std::vector<std::vector<double>> f;
    std::vector<int> l;
    for (std::size_t i = 0; i < data.energies.size(); ++i) {
        f.push_back({data.energies[i]});
        l.push_back(data.satisfiable[i] ? 1 : 0);
    }
    return classifier.model().accuracy(f, l);
}

double
uncertainFraction(const Labelled &data)
{
    bayes::EnergyClassifier classifier;
    classifier.fit(data.energies, data.satisfiable, 0.9);
    double max_e = 0;
    for (double e : data.energies)
        max_e = std::max(max_e, e);
    return classifier.uncertainFraction(std::max(max_e, 1.0));
}

} // namespace

int
main()
{
    std::printf("=== Figure 15: coefficient-adjustment noise "
                "optimization ===\n");

    // (a) Energy surface lift, exhaustive on small clause sets.
    {
        const int rounds = bench::fullScale() ? 60 : 25;
        OnlineStats lift_small, lift_large;
        Rng rng(0xf15);
        for (int i = 0; i < rounds; ++i) {
            const auto small = gen::uniformRandom3Sat(6, 9, rng);
            lift_small.add(
                qubo::surfaceImprovement(small.clauses()));
            const auto large = gen::uniformRandom3Sat(8, 14, rng);
            lift_large.add(
                qubo::surfaceImprovement(large.clauses()));
        }
        std::printf("\n(a) violating-band energy surface lift "
                    "(adjusted / plain, normalized)\n");
        Table ta;
        ta.setHeader({"Problem size", "Mean lift", "Max lift"});
        ta.addRow({"6 vars / 9 clauses",
                   Table::num(lift_small.mean(), 2),
                   Table::num(lift_small.max(), 2)});
        ta.addRow({"8 vars / 14 clauses",
                   Table::num(lift_large.mean(), 2),
                   Table::num(lift_large.max(), 2)});
        ta.print();
    }

    // (b) interval overlap + GNB accuracy on noisy samples.
    {
        const int per_class = bench::fullScale() ? 400 : 80;
        const auto plain = collect(false, per_class);
        const auto adjusted = collect(true, per_class);
        std::printf("\n(b) confidence intervals under noise "
                    "(%d problems per class)\n",
                    per_class);
        Table tb;
        tb.setHeader({"Configuration", "Uncertain interval %",
                      "GNB accuracy %"});
        tb.addRow({"alpha = 1 (prior work)",
                   Table::num(100 * uncertainFraction(plain), 1),
                   Table::num(100 * gnbAccuracy(plain), 2)});
        tb.addRow({"adjusted (Eq. 6-9)",
                   Table::num(100 * uncertainFraction(adjusted), 1),
                   Table::num(100 * gnbAccuracy(adjusted), 2)});
        tb.print();
    }

    std::printf("\nPaper (Fig. 15): energy gap up 1.5-1.8x with "
                "problem size; uncertain interval 28.1%% -> 14.0%%; "
                "GNB accuracy 84.76%% -> 97.53%%. Shape to check: "
                "surface lift > 1 growing with size; adjusted row "
                "shows a smaller uncertain interval and higher "
                "accuracy.\n");
    return 0;
}
