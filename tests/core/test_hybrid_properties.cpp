/**
 * @file
 * Parameterized soundness sweep for the hybrid solver: every
 * configuration combination (noise on/off, embedding vs logical
 * sampling, strategy ablations, queue modes, warm-up lengths) must
 * agree with the brute-force reference on satisfiability and return
 * verifying models.
 */

#include <gtest/gtest.h>

#include "core/hybrid_solver.h"
#include "sat/brute_force.h"
#include "tests/sat/helpers.h"

namespace hyqsat::core {
namespace {

struct SweepParam
{
    bool noisy;
    bool embed; ///< "qa" through the embedding, else "logical"
    bool s1, s2, s4;
    bool random_queue;
    std::int64_t warmup; // -1 = sqrt(K)
};

std::string
paramName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const auto &p = info.param;
    std::string name = p.noisy ? "noisy" : "clean";
    name += p.embed ? "_embed" : "_logical";
    name += p.s1 ? "_s1" : "";
    name += p.s2 ? "_s2" : "";
    name += p.s4 ? "_s4" : "";
    name += p.random_queue ? "_randq" : "_actq";
    name += "_w" + (p.warmup < 0 ? std::string("sqrtK")
                                 : std::to_string(p.warmup));
    return name;
}

class HybridSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(HybridSweep, SoundOnRandomInstances)
{
    const auto &p = GetParam();
    HybridConfig cfg;
    if (p.noisy) {
        cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
        cfg.annealer.noise.readout_flip_prob = 0.05;
    } else {
        cfg.annealer.noise = anneal::NoiseModel::noiseFree();
        cfg.annealer.greedy_finish = true;
    }
    cfg.sampler = p.embed ? "qa" : "logical";
    cfg.backend.enable_strategy1 = p.s1;
    cfg.backend.enable_strategy2 = p.s2;
    cfg.backend.enable_strategy4 = p.s4;
    cfg.frontend.queue.random_queue = p.random_queue;
    cfg.warmup_override = p.warmup;

    Rng gen(1234);
    for (int round = 0; round < 6; ++round) {
        const auto cnf = sat::testing::randomCnf(13, 55, 3, gen);
        const bool expected = sat::bruteForceSolve(cnf).satisfiable;
        cfg.seed = 500 + round;
        HybridSolver solver(cfg);
        const auto result = solver.solve(cnf);
        ASSERT_FALSE(result.status.isUndef());
        ASSERT_EQ(result.status.isTrue(), expected)
            << "round " << round;
        if (result.status.isTrue())
            EXPECT_TRUE(cnf.eval(result.model));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HybridSweep,
    ::testing::Values(
        SweepParam{false, true, true, true, true, false, -1},
        SweepParam{true, true, true, true, true, false, -1},
        SweepParam{false, false, true, true, true, false, -1},
        SweepParam{true, false, true, true, true, false, -1},
        SweepParam{false, true, false, false, false, false, -1},
        SweepParam{false, true, true, false, false, false, -1},
        SweepParam{false, true, false, true, false, false, -1},
        SweepParam{false, true, false, false, true, false, -1},
        SweepParam{false, true, true, true, true, true, -1},
        SweepParam{true, true, true, true, true, true, 5},
        SweepParam{false, true, true, true, true, false, 0},
        SweepParam{false, true, true, true, true, false, 1000}),
    paramName);

} // namespace
} // namespace hyqsat::core
