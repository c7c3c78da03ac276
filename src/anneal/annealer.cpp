#include "anneal/annealer.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/logging.h"

namespace hyqsat::anneal {

/**
 * See annealer.h. The replay schedule records every perturb() the
 * legacy per-sample model build performed, in call order: replaying
 * it with += into zeroed coefficient buffers reproduces the noisy
 * model of the pre-compiled implementation bit for bit (same
 * gaussian draw order, same accumulation order), while the expensive
 * part — graph walks, coupler lookups, adjacency construction — runs
 * once per problem instead of once per sample.
 */
struct AnnealCompiled
{
    /**
     * One recorded coefficient program step. b < 0: a field op
     * adding (base + noise) to h[a] (a is a spin index). b >= 0: a
     * coupling op adding (base + noise) to w[a] and w[b] (both CSR
     * twin slots of the edge).
     */
    struct CoeffOp
    {
        std::int32_t a = 0;
        std::int32_t b = -1;
        double base = 0.0;
        double range = 1.0;
    };

    /** Flat model + chain groups (noise-free base coefficients). */
    std::shared_ptr<const SaCompiled> sa;

    /** Physical spin -> logical node (embedded flavor only). */
    std::vector<int> spin_node;

    /** Noise replay schedule, in legacy perturb() call order. */
    std::vector<CoeffOp> ops;
};

namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Memo key for a CompiledSlot: the compiled product depends on the
 * flavor (embedded vs logical), the hardware graph identity and the
 * chain strength; the problem/embedding themselves are identified by
 * the slot's owner (it lives on the QueueEmbedResult). The graph is
 * keyed by its never-reused uid(), not its address — the slot lives
 * on a long-lived cached QueueEmbedResult, so an address could be
 * recycled by a different graph within the slot's lifetime.
 */
std::uint64_t
slotTag(std::uint64_t flavor, const chimera::ChimeraGraph &graph,
        double chain_strength)
{
    std::uint64_t cs = 0;
    std::memcpy(&cs, &chain_strength, sizeof(cs));
    return mix64(mix64(flavor ^ graph.uid()) ^ cs);
}

void
addStats(SaStats &into, const SaStats &s)
{
    into.sweeps += s.sweeps;
    into.flips_attempted += s.flips_attempted;
    into.flips_accepted += s.flips_accepted;
    into.reads += s.reads;
    into.read_groups += s.read_groups;
}

/** Rewrite a coupling op's endpoints to the edge's CSR twin slots. */
void
resolveCouplingSlots(const qubo::CsrIsing &csr,
                     std::vector<AnnealCompiled::CoeffOp> &ops)
{
    for (auto &op : ops) {
        if (op.b < 0)
            continue;
        const int u = op.a;
        const int v = op.b;
        op.a = csr.slot(u, v);
        op.b = csr.slot(v, u);
        if (op.a < 0 || op.b < 0)
            panic("compiled CSR lacks a slot for edge (%d, %d)", u, v);
    }
}

} // namespace

QuantumAnnealer::Options
QuantumAnnealer::Options::simulator()
{
    Options opts = dwave2000q();
    opts.noise = NoiseModel::noiseFree();
    opts.attempts = 2;
    return opts;
}

QuantumAnnealer::Options
QuantumAnnealer::Options::dwave2000q()
{
    Options opts;
    opts.noise = NoiseModel::dwave2000q();
    opts.greedy_finish = true;
    opts.attempts = 1;
    return opts;
}

QuantumAnnealer::QuantumAnnealer(const chimera::ChimeraGraph &graph,
                                 Options opts)
    : graph_(graph), opts_(opts), rng_(opts.seed)
{
}

double
QuantumAnnealer::perturb(double value, double range)
{
    if (opts_.noise.coefficient_sigma <= 0.0)
        return value;
    return value +
           rng_.gaussian(0.0, opts_.noise.coefficient_sigma * range);
}

std::shared_ptr<const AnnealCompiled>
QuantumAnnealer::compiledEmbedded(const qubo::EncodedProblem &problem,
                                  const embed::Embedding &embedding,
                                  const embed::CompiledSlot *slot)
{
    const std::uint64_t tag =
        slotTag(/*flavor=*/1, graph_, opts_.chain_strength);
    if (slot) {
        if (auto hit = slot->get(tag))
            return std::static_pointer_cast<const AnnealCompiled>(hit);
    }

    auto cp = std::make_shared<AnnealCompiled>();
    const int num_nodes = problem.numNodes();

    // Compact physical qubit indexing over the used qubits.
    std::unordered_map<int, int> dense; // hardware qubit -> spin index
    for (int n = 0; n < num_nodes; ++n) {
        for (int q : embedding.chain(n)) {
            dense.emplace(q, static_cast<int>(dense.size()));
            cp->spin_node.push_back(n);
        }
    }

    const qubo::IsingModel logical = quboToIsing(problem.normalized);
    qubo::IsingModel physical(static_cast<int>(dense.size()));

    // Distribute each node's field over its chain.
    for (int n = 0; n < num_nodes; ++n) {
        const auto &chain = embedding.chain(n);
        const double share =
            logical.field(n) / static_cast<double>(chain.size());
        for (int q : chain) {
            const int p = dense.at(q);
            physical.addField(p, share);
            cp->ops.push_back({p, -1, share, 2.0});
        }
    }

    // Each logical coupling sits on one physical coupler. The zero
    // skip precedes the (recorded) perturb, exactly as the legacy
    // build skipped before drawing.
    for (const auto &[key, w] : logical.couplingTerms()) {
        if (w == 0.0)
            continue;
        const auto coupler =
            embedding.findCoupler(graph_, key.first(), key.second());
        if (!coupler) {
            panic("embedding lacks a coupler for edge (%d, %d)",
                  key.first(), key.second());
        }
        const int p = dense.at(coupler->first);
        const int q = dense.at(coupler->second);
        physical.addCoupling(p, q, w);
        cp->ops.push_back({p, q, w, 1.0});
    }

    // Ferromagnetic chain couplings on every intra-chain coupler.
    for (int n = 0; n < num_nodes; ++n) {
        const auto &chain = embedding.chain(n);
        for (std::size_t i = 0; i < chain.size(); ++i) {
            for (std::size_t j = i + 1; j < chain.size(); ++j) {
                if (graph_.connected(chain[i], chain[j])) {
                    const int p = dense.at(chain[i]);
                    const int q = dense.at(chain[j]);
                    physical.addCoupling(p, q, -opts_.chain_strength);
                    cp->ops.push_back(
                        {p, q, -opts_.chain_strength, 1.0});
                }
            }
        }
    }

    // Chains are registered as block-move groups: a logical variable
    // flip is then a single proposal, which keeps long chains
    // kinetically mobile (the device analogue is collective
    // tunneling of the chain). include_zero keeps every programmed
    // edge addressable so the noise replay can perturb it.
    SaCompiled built = SaCompiled::build(physical, /*include_zero=*/true);
    {
        std::vector<std::vector<int>> groups(num_nodes);
        for (int n = 0; n < num_nodes; ++n)
            for (int q : embedding.chain(n))
                groups[n].push_back(dense.at(q));
        built.compileGroups(groups);
    }
    resolveCouplingSlots(built.csr, cp->ops);
    cp->sa = std::make_shared<const SaCompiled>(std::move(built));

    if (slot)
        slot->set(tag, cp);
    return cp;
}

std::shared_ptr<const AnnealCompiled>
QuantumAnnealer::compiledLogical(const qubo::EncodedProblem &problem,
                                 const embed::CompiledSlot *slot)
{
    const std::uint64_t tag =
        slotTag(/*flavor=*/2, graph_, opts_.chain_strength);
    if (slot) {
        if (auto hit = slot->get(tag))
            return std::static_pointer_cast<const AnnealCompiled>(hit);
    }

    auto cp = std::make_shared<AnnealCompiled>();
    const qubo::IsingModel logical = quboToIsing(problem.normalized);

    // The legacy noisy rebuild perturbed every field and EVERY
    // coupling map entry (no zero skip here), so record them all;
    // include_zero keeps the zero-weight slots addressable.
    for (int i = 0; i < logical.numSpins(); ++i)
        cp->ops.push_back({i, -1, logical.field(i), 2.0});
    for (const auto &[key, w] : logical.couplingTerms())
        cp->ops.push_back({key.first(), key.second(), w, 1.0});

    SaCompiled built = SaCompiled::build(logical, /*include_zero=*/true);
    resolveCouplingSlots(built.csr, cp->ops);
    cp->sa = std::make_shared<const SaCompiled>(std::move(built));

    if (slot)
        slot->set(tag, cp);
    return cp;
}

SaSampler
QuantumAnnealer::programCompiled(const AnnealCompiled &cp)
{
    SaSampler sampler(cp.sa);
    // sigma <= 0 draws NOTHING, exactly like the legacy per-sample
    // model build: its perturb() had the same early-out before ever
    // reaching Rng::gaussian, so the noise-free RNG stream never
    // contained noise draws. Verified bit-identical (bits + stream
    // position) against the pre-rewrite build; pinned by the
    // Annealer.GoldenSeed* tests.
    if (opts_.noise.coefficient_sigma <= 0.0)
        return sampler;
    const qubo::CsrIsing &csr = cp.sa->csr;
    noisy_h_.assign(csr.h.size(), 0.0);
    noisy_w_.assign(csr.w.size(), 0.0);
    for (const AnnealCompiled::CoeffOp &op : cp.ops) {
        const double v = perturb(op.base, op.range);
        if (op.b < 0) {
            noisy_h_[op.a] += v;
        } else {
            noisy_w_[op.a] += v;
            noisy_w_[op.b] += v;
        }
    }
    sampler.setCoeffs(noisy_h_.data(), noisy_w_.data());
    return sampler;
}

SaSampler
QuantumAnnealer::programSampler(const qubo::EncodedProblem &problem,
                                const embed::Embedding &embedding)
{
    return programCompiled(*compiledEmbedded(problem, embedding, nullptr));
}

AnnealSample
QuantumAnnealer::sample(const qubo::EncodedProblem &problem,
                        const embed::Embedding &embedding)
{
    return sample(problem, embedding, nullptr);
}

AnnealSample
QuantumAnnealer::sample(const qubo::EncodedProblem &problem,
                        const embed::Embedding &embedding,
                        const embed::CompiledSlot *slot)
{
    run_stats_ = {};
    AnnealSample out;
    out.device_time_us = opts_.timing.sampleTimeUs(1);
    const int num_nodes = problem.numNodes();
    out.node_bits.assign(num_nodes, false);
    if (num_nodes == 0)
        return out;
    if (embedding.numNodes() != num_nodes)
        panic("embedding/problem node count mismatch (%d vs %d)",
              embedding.numNodes(), num_nodes);

    const auto cp = compiledEmbedded(problem, embedding, slot);
    // One noise draw per sample() call (before any sampling draws),
    // matching the legacy once-per-call model build.
    SaSampler sampler = programCompiled(*cp);

    SaOptions sa;
    sa.sweeps = opts_.noise.sweeps;
    sa.beta_end = opts_.noise.beta_final;
    sa.greedy_finish = opts_.greedy_finish;
    sa.num_reads = opts_.num_reads;
    sa.reads_groups = opts_.reads_groups;
    sa.stop = stop_;

    const std::vector<int> &spin_node = cp->spin_node;
    bool have_best = false;
    for (int attempt = 0; attempt < std::max(opts_.attempts, 1);
         ++attempt) {
        SaResult result = sampler.sample(sa, rng_);
        addStats(run_stats_, result.stats);
        if (result.cancelled) {
            out.cancelled = true;
            break;
        }

        // Readout error flips individual physical qubits.
        if (opts_.noise.readout_flip_prob > 0.0) {
            for (auto &s : result.spins)
                if (rng_.chance(opts_.noise.readout_flip_prob))
                    s = -s;
            result.energy = sampler.energy(result.spins);
        }

        // De-embed: majority vote per chain.
        std::vector<int> votes(num_nodes, 0);
        std::vector<int> sizes(num_nodes, 0);
        for (std::size_t s = 0; s < result.spins.size(); ++s) {
            votes[spin_node[s]] += result.spins[s];
            ++sizes[spin_node[s]];
        }
        AnnealSample candidate;
        candidate.device_time_us = out.device_time_us;
        candidate.node_bits.assign(num_nodes, false);
        candidate.physical_energy = result.energy;
        for (int n = 0; n < num_nodes; ++n) {
            const int v = votes[n];
            candidate.chain_breaks += (std::abs(v) != sizes[n]);
            if (v == 0)
                candidate.node_bits[n] = rng_.chance(0.5); // tie
            else
                candidate.node_bits[n] = v > 0;
        }
        candidate.clause_energy =
            problem.clauseSpaceEnergy(candidate.node_bits);
        candidate.weighted_energy =
            problem.objective.energy(candidate.node_bits);

        if (!have_best || candidate.clause_energy < out.clause_energy) {
            out = candidate;
            have_best = true;
        }
        if (out.clause_energy == 0.0)
            break;
    }
    return out;
}

AnnealSample
QuantumAnnealer::sampleLogical(const qubo::EncodedProblem &problem)
{
    return sampleLogical(problem, nullptr);
}

AnnealSample
QuantumAnnealer::sampleLogical(const qubo::EncodedProblem &problem,
                               const embed::CompiledSlot *slot)
{
    run_stats_ = {};
    AnnealSample out;
    out.device_time_us = opts_.timing.sampleTimeUs(1);
    const int num_nodes = problem.numNodes();
    out.node_bits.assign(num_nodes, false);
    if (num_nodes == 0)
        return out;

    const auto cp = compiledLogical(problem, slot);
    SaSampler sampler = programCompiled(*cp);

    SaOptions sa;
    sa.sweeps = opts_.noise.sweeps;
    sa.beta_end = opts_.noise.beta_final;
    sa.greedy_finish = opts_.greedy_finish;
    sa.num_reads = opts_.num_reads;
    sa.reads_groups = opts_.reads_groups;
    sa.stop = stop_;

    bool have_best = false;
    for (int attempt = 0; attempt < std::max(opts_.attempts, 1);
         ++attempt) {
        SaResult result = sampler.sample(sa, rng_);
        addStats(run_stats_, result.stats);
        if (result.cancelled) {
            out.cancelled = true;
            break;
        }
        if (opts_.noise.readout_flip_prob > 0.0) {
            for (auto &s : result.spins)
                if (rng_.chance(opts_.noise.readout_flip_prob))
                    s = -s;
            result.energy = sampler.energy(result.spins);
        }
        AnnealSample candidate;
        candidate.device_time_us = out.device_time_us;
        candidate.physical_energy = result.energy;
        candidate.node_bits.assign(num_nodes, false);
        for (int n = 0; n < num_nodes; ++n)
            candidate.node_bits[n] = result.spins[n] > 0;
        candidate.clause_energy =
            problem.clauseSpaceEnergy(candidate.node_bits);
        candidate.weighted_energy =
            problem.objective.energy(candidate.node_bits);
        if (!have_best || candidate.clause_energy < out.clause_energy) {
            out = candidate;
            have_best = true;
        }
        if (out.clause_energy == 0.0)
            break;
    }
    return out;
}

} // namespace hyqsat::anneal
