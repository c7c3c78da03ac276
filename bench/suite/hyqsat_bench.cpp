/**
 * @file
 * hyqsat_bench: the repository's benchmark harness. One process runs
 * one workload for a fixed time, checks every answer, and prints every
 * metric by name with its unit; the last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}.
 *
 *   hyqsat_bench --workload easy_suite|hard_uf|multi_read|service_mix
 *                [--seed N] [--seconds S] [--trace FILE] [--scratch DIR]
 *   hyqsat_bench --smoke
 *
 * The program is driven only through its public entry points:
 * core::HybridSolver::solve, core::solveClassicCdcl, and a
 * service::JobScheduler + SessionManager + Server reached over a unix
 * socket. Inputs are generated from --seed; the program sees only the
 * generated formulas. Without --trace the end-to-end metrics are
 * printed; with --trace FILE the per-layer metrics are printed, taken
 * from the MetricsRegistry the program publishes through its public
 * metrics pointers plus spans the harness records around its calls
 * (written to FILE as Chrome trace-event JSON). README.md gives the
 * workloads, the metric definitions and how to read a trace.
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/hybrid_solver.h"
#include "gen/benchmarks.h"
#include "gen/circuit.h"
#include "gen/crypto.h"
#include "gen/factorization.h"
#include "gen/graph_coloring.h"
#include "gen/inductive.h"
#include "gen/planning.h"
#include "gen/random_sat.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace hyqsat;

namespace {

/** Repetitions of the set-up measurement; setup_s is their median. */
constexpr int kSetupRepeats = 15;

/** Per-solve budget; a solve that hits it counts as failed. */
constexpr double kSolveLimitS = 120.0;

/** sat.iterations sums the first this-many operations (exact count). */
constexpr int kPrefixOps = 6;

/**
 * service_mix: a client cycle opens a session, makes kSessionSolves
 * ASSUME+SOLVE calls, each after kSubmitsPerSolve SUBMIT+WAIT round
 * trips, and closes the session.
 */
constexpr int kSubmitsPerSolve = 16;
constexpr int kSessionSolves = 4;

/** service_mix: QA-assisted iterations per session solve. */
constexpr std::int64_t kSessionWarmup = 16;

/** service_mix: generated instances per SUBMIT family. */
constexpr int kBankPerFamily = 24;

/** Pool helper threads for multi-read anneals (caller + 2 = 3). */
constexpr const char *kPoolThreads = "2";

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

/** Seed of instance @p index of family @p name under workload seed. */
std::uint64_t
instanceSeed(std::uint64_t seed, std::string_view name, int index)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    Rng mix(seed ^ h ^ (0x9e3779b97f4a7c15ull *
                        static_cast<std::uint64_t>(index + 1)));
    return mix.next();
}

/** One instance family: a generator and its known satisfiability. */
struct Family
{
    const char *name;
    bool satisfiable; ///< every instance is SAT (true) or UNSAT (false)
    sat::Cnf (*make)(std::uint64_t seed, int index);
};

/**
 * Generator shapes. The easy families are the structured rows of
 * Table I at a size whose hybrid solve costs ~0.2-0.6 s, so one run
 * holds tens of solves per family; BP, II and CRY are exactly BP-0,
 * II-0 and CRY-0 of the registry.
 */
const Family kGc{"GC", true, [](std::uint64_t seed, int i) {
    Rng rng(instanceSeed(seed, "GC", i));
    return gen::flatColoringCnf(50, 120, 3, rng);
}};
const Family kCfa{"CFA", false, [](std::uint64_t seed, int i) {
    Rng rng(instanceSeed(seed, "CFA", i));
    const gen::Circuit c = gen::randomCircuit(10, 40, 4, rng);
    return sat::toThreeSat(gen::faultMiter(c, -1, false));
}};
const Family kBp{"BP", true, [](std::uint64_t seed, int i) {
    Rng rng(instanceSeed(seed, "BP", i));
    return sat::toThreeSat(gen::blocksWorldCnf(3, rng));
}};
const Family kIi{"II", true, [](std::uint64_t seed, int i) {
    Rng rng(instanceSeed(seed, "II", i));
    return sat::toThreeSat(gen::inductiveInferenceCnf(8, 2, 16, rng));
}};
const Family kIf{"IF", true, [](std::uint64_t seed, int i) {
    Rng rng(instanceSeed(seed, "IF", i));
    return sat::toThreeSat(gen::randomSemiprimeCnf(6, 6, rng));
}};
// Like the registry's CRY rows, the adder circuit has no random part:
// runs differ only in the solver seed.
const Family kCry{"CRY", false, [](std::uint64_t, int) {
    return sat::toThreeSat(gen::cmpAddCnf(8));
}};
/**
 * Over-constrained uniform random 3-SAT: 200 variables, 1100 clauses
 * (ratio 5.5), redrawn until the reference CDCL refutes the draw. Like
 * the registry's AI rows it is uniform 3-SAT, but its refutation time
 * varies far less between draws than the time to solve a satisfiable
 * draw at the phase transition, whose heavy tail moves the median of
 * a run's solves from one seed to the next.
 */
const Family kUuf{"UUF200", false, [](std::uint64_t seed, int i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
        Rng rng(instanceSeed(seed, "UUF200", i) + 0x9e3779b9ull * attempt);
        sat::Cnf cnf = gen::uniformRandom3Sat(200, 1100, rng);
        sat::Solver reference;
        if (!reference.loadCnf(cnf) || reference.solve().isFalse())
            return cnf;
    }
    throw std::runtime_error("UUF200: no unsatisfiable draw");
}};

/**
 * A batch workload: solves cycle through its families, each solve on a
 * new instance, so a run averages over as many draws as it can.
 */
struct BatchWorkload
{
    const char *name;
    int num_reads;
    std::int64_t warmup; ///< QA-assisted iterations; < 0 = sqrt(K) policy
    std::vector<Family> families;
};

const BatchWorkload kEasySuite{"easy_suite", 1, -1,
                               {kGc, kCfa, kBp, kIi, kIf, kCry}};
// A 16-iteration warm-up instead of the policy's ~110: the annealer
// then costs ~0.2 s of host time per solve instead of ~1 s, so a run
// holds ~100 solves, and CDCL, the layer this workload is for, carries
// ~90% of the modeled time.
const BatchWorkload kHardUf{"hard_uf", 1, 16, {kUuf}};
// Families whose solves always run the full warm-up window and stop
// soon after it, so every solve anneals the same number of samples and
// does a similar number of iterations (GC, IF, BP and II vary 3x). The
// 16-iteration warm-up (the policy gives ~32) halves the cost of a
// solve, so a run holds ~22 solves instead of ~11.
const BatchWorkload kMultiRead{"multi_read", 16, 16, {kCfa, kCry}};

constexpr const char *kServiceMix = "service_mix";

/** service_mix SUBMIT rotation (registry rows, one stratum each). */
const char *const kServiceFamilies[] = {"GC1", "IF1", "BP",  "II",
                                        "CRY", "AI1", "GC2", "IF2"};
constexpr int kNumServiceFamilies = 8;

/** Fixed 20-variable formula every set-up measurement solves. */
const sat::Cnf &
warmupFormula()
{
    static const sat::Cnf cnf = [] {
        Rng rng(0x20);
        return gen::uniformRandom3Sat(20, 80, rng);
    }();
    return cnf;
}

/**
 * The §VI-C noisy device configuration, built here rather than taken
 * from bench/common.h so no environment knob can change the load.
 */
core::HybridConfig
deviceConfig(std::uint64_t solver_seed, int num_reads)
{
    core::HybridConfig cfg;
    cfg.annealer.noise = anneal::NoiseModel::dwave2000q();
    cfg.annealer.greedy_finish = true;
    cfg.annealer.attempts = 1;
    cfg.num_reads = num_reads;
    cfg.seed = solver_seed;
    return cfg;
}

/** deviceConfig for one solve of batch workload @p w. */
core::HybridConfig
batchConfig(const BatchWorkload &w, std::uint64_t solver_seed)
{
    core::HybridConfig cfg = deviceConfig(solver_seed, w.num_reads);
    cfg.warmup_override = w.warmup;
    return cfg;
}

// ----------------------------------------------------------------------
// Spans (traced runs only)
// ----------------------------------------------------------------------

/**
 * In-memory span log written out as Chrome trace-event JSON at the end
 * of a traced run. Spans of one solve, job or session share a request
 * id. Thread-safe: service clients record from their own threads.
 */
class SpanLog
{
  public:
    std::uint64_t
    begin(const std::string &name, std::uint64_t parent,
          std::uint64_t request, int lane)
    {
        const double now = epoch_.micros();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, now, now, parent, request, lane});
        return spans_.size(); // ids are 1-based
    }

    void
    end(std::uint64_t id)
    {
        const double now = epoch_.micros();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end_us = now;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \""
                << jsonEscape(s.name)
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
                << ", \"ts\": " << jsonNumber(s.start_us, 15)
                << ", \"dur\": " << jsonNumber(s.end_us - s.start_us, 15)
                << ", \"args\": {\"span\": " << i + 1
                << ", \"parent\": " << s.parent
                << ", \"request\": " << s.request << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start_us;
        double end_us;
        std::uint64_t parent;
        std::uint64_t request;
        int lane;
    };

    Timer epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, std::uint64_t parent,
               std::uint64_t request, int lane)
        : log_(log), id_(log ? log->begin(name, parent, request, lane) : 0)
    {
    }

    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint64_t id_;
};

// ----------------------------------------------------------------------
// Solve watchdog
// ----------------------------------------------------------------------

/** Trips an armed StopToken once a solve exceeds its budget. */
class Watchdog
{
  public:
    explicit Watchdog(double limit_s) : limit_(limit_s) {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            quit_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Watch @p token until disarm(); it must outlive that call. */
    void
    arm(StopToken *token)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            token_ = token;
            deadline_ = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(limit_));
            ++generation_;
        }
        cv_.notify_all();
    }

    void
    disarm()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            token_ = nullptr;
            ++generation_;
        }
        cv_.notify_all();
    }

  private:
    using Clock = std::chrono::steady_clock;

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!quit_) {
            if (!token_) {
                cv_.wait(lock, [&] { return quit_ || token_; });
                continue;
            }
            const std::uint64_t generation = generation_;
            const bool changed = cv_.wait_until(lock, deadline_, [&] {
                return quit_ || generation_ != generation;
            });
            if (!changed) {
                token_->requestStop();
                token_ = nullptr;
            }
        }
    }

    const double limit_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool quit_ = false;
    StopToken *token_ = nullptr;
    Clock::time_point deadline_;
    std::uint64_t generation_ = 0;
    std::thread thread_{[this] { loop(); }};
};

// ----------------------------------------------------------------------
// Statistics
// ----------------------------------------------------------------------

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Geometric mean of the positive entries (0 when there are none). */
double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    int n = 0;
    for (const double x : v) {
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

// ----------------------------------------------------------------------
// Host speed
// ----------------------------------------------------------------------

/**
 * Time of hostProbe() on a quiet host: the 5th percentile of 37,000
 * probes on a 4-vCPU Sapphire Rapids KVM guest. It only sets the scale
 * of the reported times; 1.0x slow-down means this speed.
 */
constexpr double kQuietProbeS = 180e-6;

/**
 * A fixed piece of arithmetic (xorshift and exp, in registers and L1)
 * that lives here, so no change to src/ makes it faster or slower.
 * @return its wall time in seconds.
 */
double
hostProbe()
{
    static volatile double sink = 0.0;
    const Timer timer;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < 30000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += std::exp(-static_cast<double>(x & 1023) / 64.0);
    }
    sink = sink + acc;
    return timer.seconds();
}

/**
 * How much slower than kQuietProbeS the host runs right now: the mean
 * of 4 probes, after 2 that let a core just woken from a sleep (which
 * runs them up to 1.5x slower) come up to speed.
 *
 * Other tenants of the shared host slow each core by ~1.5x for part of
 * the time, switching within a second, and the slowed share changes
 * over minutes. Raw times of the same solves then differ by 20-40%
 * between runs, more than any bound allows. Every host-measured time is
 * therefore divided by the slow-down read on both sides of it;
 * README.md gives the measurements behind this.
 */
double
hostSlowdown()
{
    hostProbe();
    hostProbe();
    double sum = 0.0;
    for (int i = 0; i < 4; ++i)
        sum += hostProbe();
    return sum / 4 / kQuietProbeS;
}

/** Call @p work; return the mean host slow-down just before and after. */
template <typename Work>
double
slowdownAround(Work &&work)
{
    const double before = hostSlowdown();
    work();
    return 0.5 * (before + hostSlowdown());
}

/** One measured operation: a solve, a SUBMIT+WAIT or a session SOLVE. */
struct Op
{
    int stratum = 0;          ///< family / request kind
    int input = 0;            ///< instance within the stratum
    double wall_s = 0.0;      ///< caller-observed latency
    double modeled_s = -1.0;  ///< Table II time; < 0 = not observable
    double device_s = 0.0;    ///< its modeled device part (not host time)
    double slowdown = 1.0;    ///< host slow-down around the operation
    std::uint64_t iterations = 0;
    bool failed = false;

    /** wall_s at the speed of a quiet host. */
    double adjustedWall() const { return wall_s / slowdown; }

    /** modeled_s with its host-measured part at a quiet host's speed. */
    double
    adjustedModeled() const
    {
        return (modeled_s - device_s) / slowdown + device_s;
    }
};

/**
 * A statistic of each input's operations, then the geometric mean over
 * the stratum's inputs, then over strata: each input and each family
 * counts once, however often the time box repeated it.
 */
double
stratified(const std::vector<Op> &ops, int strata,
           double (*per_input)(const std::vector<const Op *> &))
{
    std::vector<double> values;
    for (int s = 0; s < strata; ++s) {
        std::map<int, std::vector<const Op *>> inputs;
        for (const Op &op : ops)
            if (op.stratum == s && !op.failed)
                inputs[op.input].push_back(&op);
        std::vector<double> per_input_values;
        for (const auto &[input, mine] : inputs)
            per_input_values.push_back(per_input(mine));
        if (!per_input_values.empty())
            values.push_back(geomean(per_input_values));
    }
    return geomean(values);
}

/** Mean adjusted latency of an input's operations. */
double
meanLatency(const std::vector<const Op *> &ops)
{
    double sum = 0.0;
    for (const Op *op : ops)
        sum += op->adjustedWall();
    return sum / static_cast<double>(ops.size());
}

/** Mean adjusted modeled time; 0 when no operation reports one. */
double
meanModeled(const std::vector<const Op *> &ops)
{
    double sum = 0.0;
    int n = 0;
    for (const Op *op : ops) {
        if (op->modeled_s >= 0.0) {
            sum += op->adjustedModeled();
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
modeledPerIteration(const std::vector<const Op *> &ops)
{
    double modeled = 0.0, iterations = 0.0;
    for (const Op *op : ops) {
        if (op->modeled_s < 0.0)
            return 0.0;
        modeled += op->modeled_s;
        iterations += static_cast<double>(op->iterations);
    }
    return ratio(modeled, iterations);
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run measured. */
struct Report
{
    std::vector<std::string> strata;
    std::vector<Op> ops;
    std::vector<double> setups_s; ///< at a quiet host's speed
    int failed = 0;       ///< includes refused / errored requests
    int unopened = 0;     ///< service clients that never got a session
    bool correct = true;
    std::vector<Metric> layers;  ///< traced runs only
    std::vector<Metric> details; ///< workload-specific, informational
};

std::vector<Metric>
endToEndMetrics(const Report &r)
{
    const int strata = static_cast<int>(r.strata.size());
    return {
        {"latency_ms", 1e3 * stratified(r.ops, strata, meanLatency), "ms"},
        {"modeled_ms", 1e3 * stratified(r.ops, strata, meanModeled), "ms"},
        {"setup_s", median(r.setups_s), "s"},
    };
}

/** Inputs to the per-layer ledger besides the registry itself. */
struct LayerInputs
{
    std::uint64_t prefix_iterations = 0; ///< first kPrefixOps ops
    double classic_s = 0.0;              ///< reference CDCL, same inputs
    double hybrid_modeled_s = 0.0;       ///< modeled time of those inputs
    double trace_overhead = 0.0;
};

std::vector<Metric>
layerMetrics(MetricsRegistry &m, const LayerInputs &in)
{
    const auto sec = [&](const char *name) {
        return m.timer(name)->seconds();
    };
    const auto num = [&](const char *name) {
        return static_cast<double>(m.counter(name)->value());
    };
    const double total = sec("hybrid.total");
    const double solves = static_cast<double>(m.timer("hybrid.total")->count());
    const double cdcl = sec("hybrid.cdcl");
    const double frontend = sec("pipeline.frontend");
    const double host = sec("pipeline.host_sample");
    const double device = sec("pipeline.device");
    const double backend = sec("backend.apply");
    // Synchronous pipelines charge the SA simulation to host time and
    // the device model to modeled time (TimeBreakdown::endToEnd).
    const double modeled = total - host + device;
    const double samples = num("pipeline.submitted");
    const double attempted = num("anneal.flips.attempted");
    return {
        {"sat.cdcl_s", cdcl, "s"},
        {"sat.iterations", static_cast<double>(in.prefix_iterations),
         "count"},
        {"sat.conflicts", num("solver.conflicts"), "count"},
        {"sat.props_per_s", ratio(num("solver.propagations"), cdcl), "1/s"},
        {"sat.classic_s", in.classic_s, "s"},
        {"report.speedup_vs_cdcl", ratio(in.classic_s, in.hybrid_modeled_s),
         "ratio"},
        {"frontend.s", frontend, "s"},
        {"frontend.runs", num("frontend.runs"), "count"},
        {"frontend.us_per_run", 1e6 * ratio(frontend, num("frontend.runs")),
         "us"},
        {"anneal.host_s", host, "s"},
        {"anneal.device_s", device, "s"},
        {"anneal.samples", samples, "count"},
        {"anneal.reads", num("anneal.reads"), "count"},
        {"anneal.ms_per_sample", 1e3 * ratio(host, samples), "ms"},
        {"anneal.flips_per_s", ratio(attempted, sec("anneal.sample")), "1/s"},
        {"anneal.accept_ratio", ratio(num("anneal.flips.accepted"), attempted),
         "ratio"},
        {"anneal.chain_breaks_per_sample",
         ratio(num("pipeline.chain_breaks"), samples), "count"},
        {"backend.s", backend, "s"},
        {"core.outside_search_ms_per_solve",
         1e3 * ratio(total - sec("solver.search"), solves), "ms"},
        {"ledger.anneal_wall_share", ratio(host, total), "ratio"},
        {"ledger.frontend_modeled_share", ratio(frontend, modeled), "ratio"},
        {"ledger.cdcl_modeled_share", ratio(cdcl, modeled), "ratio"},
        {"trace_overhead_frac", in.trace_overhead, "ratio"},
    };
}

void
printJsonMetrics(const std::vector<Metric> &metrics)
{
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    jsonNumber(m.value, 17).c_str(), m.unit.c_str());
    }
    std::printf("}");
}

/** One `BENCH {json}` line (run_benches.sh's trajectory convention). */
void
printBenchLine(const std::string &workload, std::uint64_t seed,
               const std::vector<Metric> &metrics)
{
    std::printf("BENCH {\"bench\": \"hyqsat_bench\", \"workload\": \"%s\", "
                "\"seed\": %llu, ",
                workload.c_str(), static_cast<unsigned long long>(seed));
    printJsonMetrics(metrics);
    std::printf("}\n");
}

// ----------------------------------------------------------------------
// Answer checking
// ----------------------------------------------------------------------

/**
 * Check one hybrid answer: a model must satisfy the generated formula,
 * an UNSAT answer must come from an UNSAT family. An undecided answer
 * is a failure, not a wrong answer.
 * @return false on a wrong answer (reported on stderr).
 */
bool
checkAnswer(const sat::Cnf &cnf, const core::HybridResult &r,
            const Family &family, int index, Op &op)
{
    if (r.status.isTrue()) {
        if (cnf.eval(r.model) && family.satisfiable)
            return true;
    } else if (r.status.isFalse()) {
        if (!family.satisfiable)
            return true;
    } else {
        op.failed = true;
        return true;
    }
    std::fprintf(stderr, "WRONG ANSWER: %s instance %d answered %s\n",
                 family.name, index, r.status.isTrue() ? "SAT" : "UNSAT");
    return false;
}

/** Status string of a CDCL reference answer, as RESULT lines spell it. */
const char *
statusName(sat::lbool status)
{
    return status.isTrue() ? "SAT" : status.isFalse() ? "UNSAT" : "UNKNOWN";
}

// ----------------------------------------------------------------------
// Batch workloads: easy_suite, hard_uf, multi_read
// ----------------------------------------------------------------------

/** Options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0x7ab1e; // Table II's instance seed
    double seconds = 25.0;
    std::string trace_path; ///< "" = untraced run
    std::string scratch = ".";
    int max_ops = 0;        ///< > 0 caps the run (smoke mode)
    int setup_repeats = kSetupRepeats;
};

/**
 * Construct a solver and solve the warm-up formula: one set-up.
 * @return its time at a quiet host's speed.
 */
double
batchSetup(const BatchWorkload &w)
{
    double seconds = 0.0;
    core::HybridResult r;
    const double slowdown = slowdownAround([&] {
        const Timer timer;
        core::HybridSolver solver(batchConfig(w, 0));
        r = solver.solve(warmupFormula());
        seconds = timer.seconds();
    });
    if (r.status == sat::l_Undef)
        throw std::runtime_error("set-up solve left the warm-up undecided");
    return seconds / slowdown;
}

/** One watched, timed HybridSolver::solve. */
core::HybridResult
timedSolve(const sat::Cnf &cnf, core::HybridConfig cfg, Watchdog &dog,
           double &wall_s)
{
    StopToken stop;
    cfg.stop = &stop;
    core::HybridSolver solver(cfg);
    dog.arm(&stop);
    const Timer timer;
    core::HybridResult r = solver.solve(cnf);
    wall_s = timer.seconds();
    dog.disarm();
    return r;
}

/**
 * Solve the workload's families round-robin until --seconds of solving
 * (at least one solve per family, and kPrefixOps when traced). Traced
 * runs solve every instance twice — with and without the registry, in
 * alternating order — so the trace overhead is a paired measurement.
 * Both answers are checked; either one undecided fails the operation.
 */
Report
runBatch(const BatchWorkload &w, const Options &opt)
{
    Report rep;
    for (const Family &f : w.families)
        rep.strata.push_back(f.name);
    // Set-ups are spread evenly over the box, so that their median,
    // like the solves', covers the whole run and not one moment of a
    // host whose speed drifts.
    const auto setUpWhenDue = [&](double solved_s) {
        while (static_cast<int>(rep.setups_s.size()) < opt.setup_repeats &&
               solved_s * opt.setup_repeats >=
                   opt.seconds * static_cast<double>(rep.setups_s.size()))
            rep.setups_s.push_back(batchSetup(w));
    };

    const bool traced = !opt.trace_path.empty();
    const int strata = static_cast<int>(w.families.size());
    const int min_ops = traced ? std::max(strata, kPrefixOps) : strata;
    MetricsRegistry registry;
    SpanLog spans;
    SpanLog *const log = traced ? &spans : nullptr;
    LayerInputs layer;
    double solving_s = 0.0; // every solve, traced or not
    double traced_wall = 0.0, untraced_wall = 0.0;
    Watchdog dog(kSolveLimitS);

    {
        ScopedSpan root(log, w.name, 0, 0, 0);
        for (int k = 0;; ++k) {
            setUpWhenDue(solving_s);
            // The box counts solving time only: generating a UUF200
            // draw costs a reference refutation.
            if (opt.max_ops > 0 ? k >= opt.max_ops
                                : k >= min_ops && solving_s >= opt.seconds)
                break;
            const Family &family =
                w.families[static_cast<std::size_t>(k % strata)];
            const int index = k / strata;
            const sat::Cnf cnf = family.make(opt.seed, index);
            const std::uint64_t request = static_cast<std::uint64_t>(k) + 1;
            const core::HybridConfig cfg =
                batchConfig(w, static_cast<std::uint64_t>(index));

            Op op;
            op.stratum = k % strata;
            op.input = index;
            ScopedSpan op_span(log, std::string("op ") + family.name,
                               root.id(), request, 0);
            core::HybridResult r;
            const auto plain = [&] {
                r = timedSolve(cnf, cfg, dog, op.wall_s);
            };
            const auto instrumented = [&] {
                ScopedSpan span(log, "HybridSolver::solve", op_span.id(),
                                request, 0);
                core::HybridConfig traced_cfg = cfg;
                traced_cfg.metrics = &registry;
                double wall = 0.0;
                const core::HybridResult tr =
                    timedSolve(cnf, traced_cfg, dog, wall);
                traced_wall += wall;
                solving_s += wall;
                layer.hybrid_modeled_s += tr.time.endToEnd();
                if (!checkAnswer(cnf, tr, family, index, op))
                    rep.correct = false;
            };
            if (traced && k % 2 == 1)
                instrumented();
            op.slowdown = slowdownAround(plain);
            if (traced && k % 2 == 0)
                instrumented();
            if (traced) {
                untraced_wall += op.wall_s;
                ScopedSpan span(log, "solveClassicCdcl", op_span.id(),
                                request, 0);
                const Timer timer;
                core::solveClassicCdcl(cnf,
                                       sat::SolverOptions::minisatStyle());
                layer.classic_s += timer.seconds();
            }

            op.modeled_s = r.time.endToEnd();
            op.device_s = r.time.qa_device_s;
            op.iterations = r.stats.iterations;
            if (!checkAnswer(cnf, r, family, index, op))
                rep.correct = false;
            if (k < kPrefixOps)
                layer.prefix_iterations += op.iterations;
            solving_s += op.wall_s;
            rep.failed += op.failed ? 1 : 0;
            rep.ops.push_back(op);
        }
    }
    setUpWhenDue(opt.seconds); // a run capped by max_ops ends early

    if (traced) {
        layer.trace_overhead = ratio(traced_wall, untraced_wall) - 1.0;
        rep.layers = layerMetrics(registry, layer);
        if (!spans.write(opt.trace_path))
            std::fprintf(stderr, "cannot write trace %s\n",
                         opt.trace_path.c_str());
    }
    return rep;
}

// ----------------------------------------------------------------------
// service_mix: the socket front door
// ----------------------------------------------------------------------

/** Client end of one protocol connection (closes on destruction). */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            return;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                  sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Connected and no send/receive has failed yet. */
    bool ok() const { return fd_ >= 0 && !broken_; }

    bool
    send(std::string_view data)
    {
        while (ok() && !data.empty()) {
            const ssize_t n =
                ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
            if (n <= 0)
                broken_ = true;
            else
                data.remove_prefix(static_cast<std::size_t>(n));
        }
        return ok();
    }

    bool
    readLine(std::string &line)
    {
        line.clear();
        while (ok()) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                broken_ = true;
            else
                buf_.append(chunk, static_cast<std::size_t>(n));
        }
        return false;
    }

    /** send() then readLine(); false once the connection broke. */
    bool
    call(std::string_view request, std::string &reply)
    {
        return send(request) && readLine(reply);
    }

  private:
    int fd_ = -1;
    bool broken_ = false;
    std::string buf_;
};

/**
 * Scheduler + session manager + server on one unix socket. One client
 * has at most one job in flight, so one scheduler worker serves it: a
 * submit races 2 threads, a session solve runs 1.
 */
class ServiceSystem
{
  public:
    ServiceSystem(const std::string &path, MetricsRegistry *metrics)
    {
        service::SchedulerOptions sopts;
        sopts.workers = 1;
        sopts.portfolio.base = deviceConfig(0, 1);
        sopts.portfolio.num_workers = 2; // slots base + cdcl
        sopts.default_timeout_s = kSolveLimitS;
        sopts.metrics = metrics;
        scheduler_ = std::make_unique<service::JobScheduler>(sopts);

        service::SessionManagerOptions mopts;
        mopts.hybrid = deviceConfig(0, 1);
        mopts.hybrid.warmup_override = kSessionWarmup;
        mopts.metrics = metrics;
        sessions_ = std::make_unique<service::SessionManager>(mopts);

        service::ServerOptions vopts;
        vopts.unix_path = path;
        server_ = std::make_unique<service::Server>(vopts, *scheduler_,
                                                    metrics);
        server_->attachSessions(sessions_.get());
        // Members built so far are torn down (and joined) on the throw.
        if (!server_->start())
            throw std::runtime_error("cannot serve on " + path);
    }

    /** Drain first so blocked WAITs resolve, then stop the server. */
    ~ServiceSystem()
    {
        scheduler_->drain(service::DrainPolicy::CancelPending);
        sessions_->drain();
        server_->stop();
        scheduler_->shutdown();
    }

    ServiceSystem(const ServiceSystem &) = delete;
    ServiceSystem &operator=(const ServiceSystem &) = delete;

    service::JobScheduler &scheduler() { return *scheduler_; }

  private:
    std::unique_ptr<service::JobScheduler> scheduler_;
    std::unique_ptr<service::SessionManager> sessions_;
    std::unique_ptr<service::Server> server_;
};

std::string
submitRequest(const std::string &tenant, const std::string &name,
              bool simplify, const std::string &dimacs)
{
    std::string req = "SUBMIT " + tenant + " 0 " + name +
                      (simplify ? " simplify=full\n" : "\n") + dimacs;
    if (req.back() != '\n')
        req += '\n';
    return req + std::string(service::kEndMarker) + "\n";
}

/**
 * Build a system and solve the warm-up formula in a session: one
 * set-up. A session solve, unlike a SUBMIT, is not a race whose
 * length depends on which portfolio worker happens to win.
 * @return its time at a quiet host's speed (teardown excluded).
 */
double
serviceSetup(const std::string &path)
{
    const std::string body = sat::toDimacsString(warmupFormula()) +
                             std::string(service::kEndMarker) + "\n";
    double seconds = 0.0;
    const double slowdown = slowdownAround([&] {
        const Timer timer;
        ServiceSystem system(path, nullptr);
        Connection conn(path);
        std::string line;
        bool ok =
            conn.call("OPEN setup\n", line) && line.rfind("OK ", 0) == 0;
        const std::string sid = ok ? line.substr(3) : "";
        ok = ok && conn.call("ADD " + sid + "\n" + body, line) &&
             line.rfind("OK ", 0) == 0 &&
             conn.call("SOLVE " + sid + "\n", line) &&
             service::parseResult(line).has_value();
        if (!ok)
            throw std::runtime_error("set-up round trip failed: " + line);
        seconds = timer.seconds();
    });
    return seconds / slowdown;
}

/** A generated input with its DIMACS text (what SUBMIT/ADD send). */
struct Input
{
    sat::Cnf cnf;
    std::string dimacs;
};

/** One client request as the client saw it. */
struct ClientRequest
{
    int stratum = 0;          ///< SUBMIT family, or the session stratum
    int input = 0;            ///< bank index (SUBMIT) / solve in cycle
    double latency_s = 0.0;   ///< request sent -> RESULT read
    double admit_s = 0.0;     ///< SUBMIT sent -> OK read
    service::JobId job = 0;
    std::string status;       ///< RESULT status, "" on refusal / error
    double job_s = 0.0;       ///< RESULT wall_s
    double slowdown = 1.0;    ///< host slow-down around the request
    std::vector<int> assumptions;
};

constexpr const char *kTenant = "client";

/**
 * SUBMIT+WAIT of the client's @p n-th submit: the families rotate, then
 * the bank, with simplify=full on every other submit, so every repeat
 * of an input is the same request.
 */
ClientRequest
submitAndWait(Connection &conn, const std::vector<std::vector<Input>> &bank,
              int n, std::uint64_t request, SpanLog *log)
{
    ClientRequest req;
    req.stratum = n % kNumServiceFamilies;
    req.input = (n / kNumServiceFamilies) % kBankPerFamily;
    const Input &in = bank[static_cast<std::size_t>(req.stratum)]
                          [static_cast<std::size_t>(req.input)];
    std::string line;
    const Timer timer;
    ScopedSpan span(log, "SUBMIT+WAIT", 0, request, 1);
    bool ok = false;
    {
        ScopedSpan admit(log, "admit", span.id(), request, 1);
        ok = conn.call(submitRequest(kTenant, kServiceFamilies[req.stratum],
                                     n % 2 == 1, in.dimacs),
                       line);
    }
    req.admit_s = timer.seconds();
    if (ok && line.rfind("OK ", 0) == 0) {
        req.job = std::strtoull(line.c_str() + 3, nullptr, 10);
        ScopedSpan wait(log, "WAIT", span.id(), request, 1);
        ok = conn.call("WAIT " + std::to_string(req.job) + "\n", line);
    } else {
        ok = false;
    }
    if (const auto result = ok ? service::parseResult(line) : std::nullopt) {
        req.status = result->second.status;
        req.job_s = result->second.wall_s;
    }
    req.latency_s = timer.seconds();
    return req;
}

/** ASSUME @p assumptions + SOLVE: the @p j-th solve of a cycle. */
ClientRequest
assumeAndSolve(Connection &conn, const std::string &sid, int j,
               const std::vector<int> &assumptions, std::uint64_t request,
               SpanLog *log)
{
    ClientRequest req;
    req.stratum = kNumServiceFamilies;
    req.input = j;
    req.assumptions = assumptions;
    std::string assume = "ASSUME " + sid;
    for (const int lit : assumptions)
        assume += " " + std::to_string(lit);
    std::string line;
    const Timer timer;
    ScopedSpan span(log, "ASSUME+SOLVE", 0, request, 1);
    const bool ok = conn.call(assume + "\n", line) &&
                    line.rfind("OK ", 0) == 0 &&
                    conn.call("SOLVE " + sid + "\n", line);
    if (const auto result = ok ? service::parseResult(line) : std::nullopt) {
        req.status = result->second.status;
        req.job_s = result->second.wall_s;
    }
    req.latency_s = timer.seconds();
    return req;
}

/**
 * The closed-loop client. It repeats cycles until the deadline, at least
 * one: OPEN a session, ADD an AI1 instance, kSessionSolves times
 * (kSubmitsPerSolve SUBMIT+WAIT, then one ASSUME+SOLVE), CLOSE. Every
 * cycle makes the same session calls, so the j-th session solve of each
 * cycle, warm with what the earlier ones learnt, repeats one input.
 * @return false when a session could not be opened.
 */
bool
runClient(const std::string &path, std::uint64_t seed,
          const std::vector<std::vector<Input>> &bank, const Input &session,
          double deadline_s, SpanLog *log,
          std::vector<ClientRequest> &out)
{
    // Three distinct variables, random signs, per session solve.
    Rng rng(instanceSeed(seed, kTenant, 0));
    std::vector<std::vector<int>> assumptions(kSessionSolves);
    for (std::vector<int> &set : assumptions) {
        while (set.size() < 3) {
            const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(
                              session.cnf.numVars()))) + 1;
            const int lit = rng.chance(0.5) ? v : -v;
            if (std::none_of(set.begin(), set.end(),
                             [&](int a) { return std::abs(a) == v; }))
                set.push_back(lit);
        }
    }
    const std::string add_body =
        session.dimacs + std::string(service::kEndMarker) + "\n";

    const Timer clock;
    Connection conn(path);
    std::string line;
    std::uint64_t request = 0;
    int submits = 0;
    // The host is read between requests; a request gets the mean of the
    // readings on its two sides.
    double before = hostSlowdown();
    const auto record = [&](ClientRequest req) {
        const double after = hostSlowdown();
        req.slowdown = 0.5 * (before + after);
        before = after;
        out.push_back(std::move(req));
    };
    for (int cycle = 0;
         conn.ok() && (cycle == 0 || clock.seconds() < deadline_s); ++cycle) {
        if (!conn.call("OPEN " + std::string(kTenant) + "\n", line) ||
            line.rfind("OK ", 0) != 0)
            return false;
        const std::string sid = line.substr(3);
        if (!conn.call("ADD " + sid + "\n" + add_body, line) ||
            line.rfind("OK ", 0) != 0)
            return false;
        for (int j = 0; j < kSessionSolves && conn.ok(); ++j) {
            for (int s = 0; s < kSubmitsPerSolve && conn.ok(); ++s)
                record(submitAndWait(conn, bank, submits++, ++request, log));
            record(assumeAndSolve(conn, sid, j, assumptions[j], ++request,
                                  log));
        }
        conn.call("CLOSE " + sid + "\n", line);
    }
    conn.send("QUIT\n");
    return true;
}

/** One service phase (the whole box, or half of it when traced). */
struct ServicePhase
{
    std::vector<ClientRequest> requests;
    bool unopened = false; ///< the session OPEN/ADD failed
    double elapsed_s = 0.0;
    std::map<service::JobId, service::InstanceRecord> records;
};

ServicePhase
servicePhase(const std::string &path, std::uint64_t seed, double seconds,
             const std::vector<std::vector<Input>> &bank,
             const Input &session, MetricsRegistry *metrics, SpanLog *log)
{
    ServicePhase phase;
    ServiceSystem system(path, metrics);
    const Timer clock;
    phase.unopened = !runClient(path, seed, bank, session, seconds, log,
                                phase.requests);
    phase.elapsed_s = clock.seconds();
    // Finished jobs are retained: the winner's breakdown is a public
    // JobScheduler::wait() away, after the timed phase.
    for (const ClientRequest &r : phase.requests)
        if (r.job != 0)
            phase.records[r.job] = system.scheduler().wait(r.job);
    return phase;
}

/**
 * Check every answer of a phase against a reference computed after the
 * timed part: classic CDCL for SUBMITs, solveWithAssumptions on the
 * session formula for session SOLVEs. Appends one Op per request and
 * adds the reference CDCL time to @p layer.
 */
bool
checkServicePhase(const ServicePhase &phase,
                  const std::vector<std::vector<Input>> &bank,
                  const Input &session, std::vector<Op> &ops,
                  LayerInputs &layer)
{
    bool correct = true;
    std::map<std::pair<int, int>, std::pair<std::string, double>> reference;
    sat::Solver session_ref;
    session_ref.loadCnf(session.cnf);
    for (const ClientRequest &r : phase.requests) {
        Op op;
        op.stratum = r.stratum;
        op.input = r.input;
        op.wall_s = r.latency_s;
        op.slowdown = r.slowdown;
        op.failed = r.status != "SAT" && r.status != "UNSAT";
        std::string expected;
        if (r.stratum < kNumServiceFamilies) {
            const auto key = std::make_pair(r.stratum, r.input);
            auto it = reference.find(key);
            if (it == reference.end()) {
                const Timer timer;
                const core::HybridResult ref = core::solveClassicCdcl(
                    bank[static_cast<std::size_t>(r.stratum)]
                        [static_cast<std::size_t>(r.input)].cnf,
                    sat::SolverOptions::minisatStyle());
                it = reference
                         .emplace(key, std::make_pair(
                                           statusName(ref.status),
                                           timer.seconds()))
                         .first;
            }
            expected = it->second.first;
            const auto rec = phase.records.find(r.job);
            if (!op.failed && rec != phase.records.end()) {
                const service::InstanceRecord &w = rec->second;
                op.modeled_s =
                    w.frontend_s + w.qa_device_s + w.backend_s + w.cdcl_s;
                op.device_s = w.qa_device_s;
                op.iterations = w.iterations;
                layer.classic_s += it->second.second;
                layer.hybrid_modeled_s += op.modeled_s;
            }
        } else {
            sat::LitVec lits;
            for (const int a : r.assumptions)
                lits.push_back(sat::mkLit(std::abs(a) - 1, a < 0));
            expected = statusName(session_ref.solveWithAssumptions(lits));
        }
        if (!op.failed && r.status != expected) {
            std::fprintf(stderr,
                         "WRONG ANSWER: %s request answered %s, reference "
                         "%s\n",
                         r.stratum < kNumServiceFamilies
                             ? kServiceFamilies[r.stratum]
                             : "session",
                         r.status.c_str(), expected.c_str());
            correct = false;
        }
        ops.push_back(op);
    }
    return correct;
}

/** Client-side latency percentiles and service-layer readings. */
std::vector<Metric>
serviceDetails(const ServicePhase &phase, MetricsRegistry *m)
{
    std::vector<double> submit, session, admit, job, overhead;
    for (const ClientRequest &r : phase.requests) {
        if (r.status.empty())
            continue;
        if (r.stratum < kNumServiceFamilies) {
            submit.push_back(r.latency_s);
            admit.push_back(r.admit_s);
            job.push_back(r.job_s);
            overhead.push_back(r.latency_s - r.job_s);
        } else {
            session.push_back(r.latency_s);
        }
    }
    std::vector<Metric> out = {
        {"submit_p50_ms", 1e3 * median(submit), "ms"},
        {"submit_p90_ms", 1e3 * percentile(submit, 0.9), "ms"},
        {"submits", static_cast<double>(submit.size()), "count"},
        {"session_solve_p50_ms", 1e3 * median(session), "ms"},
        {"session_solves", static_cast<double>(session.size()), "count"},
        {"requests_per_s",
         ratio(static_cast<double>(submit.size() + session.size()),
               phase.elapsed_s),
         "1/s"},
        {"service.admit_ms", 1e3 * median(admit), "ms"},
        {"service.job_ms", 1e3 * median(job), "ms"},
        {"service.wait_ms", 1e3 * median(overhead), "ms"},
    };
    if (m) {
        const double races =
            static_cast<double>(m->counter("portfolio.races")->value());
        out.push_back({"service.rejected",
                       static_cast<double>(
                           m->counter("service.rejected")->value()),
                       "count"});
        out.push_back({"portfolio.cancel_latency_ms",
                       1e3 * ratio(m->timer("portfolio.cancel_latency")
                                       ->seconds(),
                                   races),
                       "ms"});
        out.push_back({"portfolio.wins.cdcl_share",
                       ratio(static_cast<double>(
                                 m->counter("portfolio.wins.cdcl")->value()),
                             races),
                       "ratio"});
        out.push_back({"simplify.s", m->timer("simplify.time")->seconds(),
                       "s"});
        out.push_back({"simplify.clauses_removed",
                       static_cast<double>(
                           m->counter("simplify.clauses_removed")->value()),
                       "count"});
    }
    return out;
}

/**
 * service_mix: one closed-loop client connection against an in-process
 * daemon. Traced runs split the box into an untraced and a traced
 * phase; the latency ratio of the two is the trace overhead.
 */
Report
runService(const Options &opt)
{
    Report rep;
    for (const char *id : kServiceFamilies)
        rep.strata.push_back(std::string("submit ") + id);
    rep.strata.push_back("session");

    const std::string path =
        opt.scratch + "/hyqsat-bench-" + std::to_string(::getpid()) +
        ".sock";
    // Set-ups cannot share the host with the clients, so half run
    // before the timed phase and half after it: their median then
    // rests on two moments of a host whose speed drifts, not one.
    const auto setUp = [&](int count) {
        for (int i = 0; i < count; ++i)
            rep.setups_s.push_back(serviceSetup(path));
    };
    setUp((opt.setup_repeats + 1) / 2);

    std::vector<std::vector<Input>> bank(kNumServiceFamilies);
    for (int f = 0; f < kNumServiceFamilies; ++f) {
        const gen::Benchmark &b =
            gen::BenchmarkSuite::byId(kServiceFamilies[f]);
        for (int i = 0; i < kBankPerFamily; ++i) {
            sat::Cnf cnf = b.make(i, opt.seed);
            bank[static_cast<std::size_t>(f)].push_back(
                {cnf, sat::toDimacsString(cnf)});
        }
    }
    const sat::Cnf session_cnf =
        gen::BenchmarkSuite::byId("AI1").make(100, opt.seed);
    const Input session{session_cnf, sat::toDimacsString(session_cnf)};

    // A session that never opened is one failed operation.
    const auto account = [&](const ServicePhase &phase,
                             const std::vector<Op> &ops) {
        for (const Op &op : ops)
            rep.failed += op.failed ? 1 : 0;
        rep.failed += phase.unopened ? 1 : 0;
        rep.unopened += phase.unopened ? 1 : 0;
    };

    const bool traced = !opt.trace_path.empty();
    const double seconds = opt.max_ops > 0 ? 0.0
                           : traced        ? opt.seconds / 2
                                           : opt.seconds;
    LayerInputs layer;
    const ServicePhase plain = servicePhase(path, opt.seed, seconds, bank,
                                            session, nullptr, nullptr);
    setUp(opt.setup_repeats - static_cast<int>(rep.setups_s.size()));
    rep.correct = checkServicePhase(plain, bank, session, rep.ops, layer);
    account(plain, rep.ops);
    rep.details = serviceDetails(plain, nullptr);

    if (traced) {
        MetricsRegistry registry;
        SpanLog spans;
        const ServicePhase phase = servicePhase(
            path, opt.seed, seconds, bank, session, &registry, &spans);
        std::vector<Op> traced_ops;
        layer = LayerInputs{};
        rep.correct = checkServicePhase(phase, bank, session, traced_ops,
                                        layer) &&
                      rep.correct;
        account(phase, traced_ops);
        const int strata = static_cast<int>(rep.strata.size());
        for (std::size_t i = 0;
             i < traced_ops.size() && i < static_cast<std::size_t>(kPrefixOps);
             ++i)
            layer.prefix_iterations += traced_ops[i].iterations;
        layer.trace_overhead =
            ratio(stratified(traced_ops, strata, meanLatency),
                  stratified(rep.ops, strata, meanLatency)) -
            1.0;
        rep.ops.insert(rep.ops.end(), traced_ops.begin(), traced_ops.end());
        rep.layers = layerMetrics(registry, layer);
        rep.details = serviceDetails(phase, &registry);
        if (!spans.write(opt.trace_path))
            std::fprintf(stderr, "cannot write trace %s\n",
                         opt.trace_path.c_str());
    }
    return rep;
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

Report
runWorkload(const Options &opt)
{
    if (opt.workload == kEasySuite.name)
        return runBatch(kEasySuite, opt);
    if (opt.workload == kHardUf.name)
        return runBatch(kHardUf, opt);
    if (opt.workload == kMultiRead.name)
        return runBatch(kMultiRead, opt);
    return runService(opt);
}

bool
knownWorkload(const std::string &name)
{
    return name == kEasySuite.name || name == kHardUf.name ||
           name == kMultiRead.name || name == kServiceMix;
}

void
printSummary(const Options &opt, const Report &rep)
{
    std::printf("workload %s seed %llu: %zu operations, %d failed\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), rep.ops.size(),
                rep.failed);
    std::vector<double> slowdowns;
    for (std::size_t s = 0; s < rep.strata.size(); ++s) {
        std::vector<double> wall, adjusted;
        for (const Op &op : rep.ops) {
            if (op.stratum == static_cast<int>(s) && !op.failed) {
                wall.push_back(op.wall_s);
                adjusted.push_back(op.adjustedWall());
                slowdowns.push_back(op.slowdown);
            }
        }
        std::printf("  %-12s n=%-4zu p50=%9.2f ms, adjusted %9.2f ms\n",
                    rep.strata[s].c_str(), wall.size(), 1e3 * median(wall),
                    1e3 * median(adjusted));
    }
    std::vector<Op> unadjusted = rep.ops;
    for (Op &op : unadjusted)
        op.slowdown = 1.0;
    const int strata = static_cast<int>(rep.strata.size());
    std::printf("  host slow-down p10/p50/p90: %.3f %.3f %.3f; unadjusted "
                "latency_ms %.6g, modeled_ms %.6g\n",
                percentile(slowdowns, 0.1), median(slowdowns),
                percentile(slowdowns, 0.9),
                1e3 * stratified(unadjusted, strata, meanLatency),
                1e3 * stratified(unadjusted, strata, meanModeled));
    for (const Metric &m : rep.details)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Every workload on a couple of operations: a fast correctness gate. */
int
runSmoke(const Options &base)
{
    bool ok = true;
    for (const char *w :
         {kEasySuite.name, kHardUf.name, kMultiRead.name, kServiceMix}) {
        Options opt = base;
        opt.workload = w;
        // Two easy solves cover a SAT and an UNSAT family.
        opt.max_ops = opt.workload == kEasySuite.name ? 2 : 1;
        opt.setup_repeats = 1;
        const Report rep = runWorkload(opt);
        printSummary(opt, rep);
        ok = ok && rep.correct && rep.failed == 0 && !rep.ops.empty();
    }
    std::printf("smoke %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload easy_suite|hard_uf|multi_read|"
                 "service_mix [--seed N] [--seconds S] [--trace FILE] "
                 "[--scratch DIR]\n       %s --smoke\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            opt.trace_path = argv[++i];
        } else if (arg == "--scratch" && has_value) {
            opt.scratch = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (!smoke && (!knownWorkload(opt.workload) || !(opt.seconds > 0.0)))
        return usage(argv[0]);

    // The load is pinned here, not by the environment.
    for (const char *knob : {"HYQSAT_SAMPLER", "HYQSAT_PIPELINE_DEPTH",
                             "HYQSAT_BENCH_SCALE", "HYQSAT_BENCH_TINY"}) {
        if (std::getenv(knob)) {
            std::fprintf(stderr, "refusing to run with %s set\n", knob);
            return 2;
        }
    }
    ::setenv("HYQSAT_POOL_THREADS", kPoolThreads, 1);
    std::printf("budget: <= 3 busy solver threads (batch: 1 solve, "
                "multi_read: caller + %s pool threads; service_mix: "
                "1 connection, 1 job x 2 portfolio workers or an "
                "inline session solve)\n",
                kPoolThreads);

    Report rep;
    try {
        if (smoke)
            return runSmoke(opt);
        rep = runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hyqsat_bench: %s\n", e.what());
        return 1;
    }
    printSummary(opt, rep);
    const bool traced = !opt.trace_path.empty();
    if (traced) {
        rep.layers.push_back(
            {"report.modeled_us_per_iter",
             1e6 * stratified(rep.ops, static_cast<int>(rep.strata.size()),
                              modeledPerIteration),
             "us"});
        std::vector<Metric> bench = rep.layers;
        bench.insert(bench.end(), rep.details.begin(), rep.details.end());
        printBenchLine(opt.workload, opt.seed, bench);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, ",
                rep.correct ? "true" : "false",
                rep.ops.size() + static_cast<std::size_t>(rep.unopened),
                rep.failed);
    printJsonMetrics(traced ? rep.layers : endToEndMetrics(rep));
    std::printf("}\n");
    return rep.correct ? 0 : 1;
}
