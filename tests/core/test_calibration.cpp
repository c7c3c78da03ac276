#include <gtest/gtest.h>

#include "core/calibration.h"

namespace hyqsat::core {
namespace {

TEST(Calibration, FitsClassifierFromDeviceSamples)
{
    const auto graph = topology::Topology::dwave2000q();
    anneal::QuantumAnnealer::Options opts;
    opts.noise = anneal::NoiseModel::dwave2000q();
    opts.greedy_finish = true;
    anneal::QuantumAnnealer annealer(graph, opts);

    CalibrationOptions copts;
    copts.problems_per_class = 25;
    const auto result =
        calibrateEnergyClassifier(annealer, graph, copts);

    EXPECT_EQ(result.energies.size(), 50u);
    EXPECT_GE(result.classifier.nearUnsatCut(),
              result.classifier.nearSatCut());
    EXPECT_GT(result.accuracy, 0.5); // better than coin flips
    // Zero energy always classifies satisfiable.
    EXPECT_EQ(result.classifier.classify(0.0),
              bayes::SatisfactionClass::Satisfiable);
}

TEST(Calibration, NoiseFreeSeparatesWell)
{
    // With a noise-free annealer, satisfiable problems sample at
    // zero and unsatisfiable ones strictly above: accuracy is high.
    const auto graph = topology::Topology::dwave2000q();
    anneal::QuantumAnnealer::Options opts;
    opts.noise = anneal::NoiseModel::noiseFree();
    opts.greedy_finish = true;
    opts.attempts = 2;
    anneal::QuantumAnnealer annealer(graph, opts);

    CalibrationOptions copts;
    copts.problems_per_class = 20;
    const auto result =
        calibrateEnergyClassifier(annealer, graph, copts);
    EXPECT_GT(result.accuracy, 0.9);
}

TEST(Calibration, WeightedEnergyAxisSupported)
{
    const auto graph = topology::Topology::dwave2000q();
    anneal::QuantumAnnealer::Options opts;
    opts.noise = anneal::NoiseModel::dwave2000q();
    opts.greedy_finish = true;
    anneal::QuantumAnnealer annealer(graph, opts);

    CalibrationOptions copts;
    copts.problems_per_class = 15;
    copts.use_weighted_energy = true;
    const auto result =
        calibrateEnergyClassifier(annealer, graph, copts);
    EXPECT_EQ(result.energies.size(), 30u);
}

TEST(Calibration, DeterministicPerSeed)
{
    const auto graph = topology::Topology::dwave2000q();
    CalibrationOptions copts;
    copts.problems_per_class = 10;

    anneal::QuantumAnnealer a(graph, {}), b(graph, {});
    const auto ra = calibrateEnergyClassifier(a, graph, copts);
    const auto rb = calibrateEnergyClassifier(b, graph, copts);
    EXPECT_EQ(ra.energies, rb.energies);
    EXPECT_DOUBLE_EQ(ra.classifier.nearSatCut(),
                     rb.classifier.nearSatCut());
}

} // namespace
} // namespace hyqsat::core
