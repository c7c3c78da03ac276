/**
 * @file
 * Classifier calibration (§V-A): the paper fits its Gaussian Naive
 * Bayes energy classifier by running known satisfiable and
 * unsatisfiable problems through the annealer and partitioning the
 * energy axis at the 90% confidence crossings. This module packages
 * that protocol so a deployment can calibrate against its own
 * device/noise model instead of the published D-Wave 2000Q cuts.
 */

#ifndef HYQSAT_CORE_CALIBRATION_H
#define HYQSAT_CORE_CALIBRATION_H

#include <vector>

#include "anneal/annealer.h"
#include "bayes/intervals.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace hyqsat::core {

/** Calibration options. */
struct CalibrationOptions
{
    /** Labeled problems collected per class (sat / unsat). */
    int problems_per_class = 200;

    /** Clause-count range of the probe problems. */
    int min_clauses = 20;
    int max_clauses = 45;

    /** Confidence factor for the interval cut points. */
    double confidence = 0.9;

    /**
     * Classify on the device-reported (alpha-weighted) energy
     * (true) or the unit clause-space energy (false).
     */
    bool use_weighted_energy = false;

    std::uint64_t seed = 0xca11b;
};

/** Calibration result: the classifier plus the raw training data. */
struct CalibrationResult
{
    bayes::EnergyClassifier classifier;
    std::vector<double> energies;
    std::vector<bool> satisfiable;

    /** Training accuracy of the fitted model. */
    double accuracy = 0.0;
};

/**
 * Run the §V-A calibration protocol against @p annealer on
 * @p graph: generate labeled random problems (planted satisfiable /
 * over-constrained unsatisfiable, labels verified by the CDCL
 * solver), embed each with the fast embedder, draw one sample per
 * problem and fit the confidence intervals.
 */
CalibrationResult
calibrateEnergyClassifier(anneal::QuantumAnnealer &annealer,
                          const topology::Topology &graph,
                          const CalibrationOptions &opts = {});

} // namespace hyqsat::core

#endif // HYQSAT_CORE_CALIBRATION_H
