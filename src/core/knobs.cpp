#include "core/knobs.h"

#include <charconv>

#include "core/hybrid_solver.h"

namespace hyqsat::core {

namespace {

/** Upper bound of every count knob (SUBMIT's reads_groups bound). */
constexpr int kMaxCount = 4096;

/** Parse all of @p text as an int in [@p lo, kMaxCount] into @p out. */
bool
setCount(std::string_view text, int lo, int &out)
{
    int value = 0;
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size() ||
        value < lo || value > kMaxCount)
        return false;
    out = value;
    return true;
}

// The keyed rows' order is the order SUBMIT's usage text lists them.
constexpr Knob kKnobs[] = {
    {"simplify", "off|light|full", "simplify", true,
     [](HybridConfig &c, std::string_view v) {
         return simplify::parseStrength(std::string(v),
                                        c.simplify_strength);
     }},
    {"topology", "chimera|pegasus|zephyr", "topology", false,
     [](HybridConfig &c, std::string_view v) {
         const auto kind = topology::parseKind(v);
         c.topology = kind.value_or(c.topology);
         return kind.has_value();
     }},
    {"sampler", "NAME", nullptr, false,
     // Any name: anneal::makeSampler is the one that resolves it.
     [](HybridConfig &c, std::string_view v) {
         c.sampler = std::string(v);
         return true;
     }},
    {"depth", "N", nullptr, false,
     [](HybridConfig &c, std::string_view v) {
         return setCount(v, 1, c.pipeline_depth);
     }},
    {"num-reads", "N", nullptr, false,
     [](HybridConfig &c, std::string_view v) {
         return setCount(v, 1, c.num_reads);
     }},
    {"reads-groups", "N", "reads_groups", false,
     [](HybridConfig &c, std::string_view v) {
         return setCount(v, 0, c.reads_groups);
     }},
    {"noisy", nullptr, nullptr, false,
     [](HybridConfig &c, std::string_view) {
         c.annealer = anneal::QuantumAnnealer::Options::dwave2000q();
         return true;
     }},
};

} // namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

std::optional<KnobOverride>
parseOverride(std::string_view token, bool open)
{
    const auto eq = token.find('=');
    if (eq == std::string_view::npos)
        return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    for (const Knob &knob : kKnobs) {
        if (!knob.key || key != knob.key || (open && !knob.open))
            continue;
        HybridConfig scratch;
        if (!knob.set(scratch, value))
            return std::nullopt;
        return KnobOverride{&knob, std::string(value)};
    }
    return std::nullopt;
}

void
applyOverrides(const KnobOverrides &overrides, HybridConfig &config)
{
    for (const KnobOverride &o : overrides)
        o.knob->set(config, o.value);
}

bool
parseFlag(int argc, char **argv, int &i, HybridConfig &config,
          std::string &error)
{
    const std::string_view word = argv[i];
    if (word.rfind("--", 0) != 0)
        return false;
    const std::string_view body = word.substr(2);
    const auto eq = body.find('=');
    const std::string flag(body.substr(0, eq));
    for (const Knob &knob : kKnobs) {
        if (flag != knob.flag || (!knob.syntax && eq != body.npos))
            continue;
        std::string_view value;
        if (eq != body.npos) {
            value = body.substr(eq + 1);
        } else if (knob.syntax) {
            if (i + 1 == argc) {
                error = "missing value for --" + flag;
                return false;
            }
            value = argv[++i];
        }
        if (knob.set(config, value))
            return true;
        error = "bad --" + flag + ": " + std::string(value) +
                " (expected " + knob.syntax + ")";
        return false;
    }
    return false;
}

std::string
flagUsage()
{
    std::string out;
    for (const Knob &knob : kKnobs) {
        out += std::string(" [--") + knob.flag;
        if (knob.syntax)
            out += std::string(" ") + knob.syntax;
        out += ']';
    }
    return out;
}

} // namespace hyqsat::core
