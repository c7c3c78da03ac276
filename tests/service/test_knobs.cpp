/**
 * @file
 * The knob table (core/knobs.h): every row sets the same HybridConfig
 * through its CLI spelling and its SUBMIT spelling, rows the protocol
 * does not take are rejected with the SUBMIT/OPEN diagnostics, and
 * the CLI parser rejects bad values instead of clamping them.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hybrid_solver.h"
#include "core/knobs.h"
#include "service/protocol.h"

namespace hyqsat::core {
namespace {

/** Every field a knob row writes, rendered for comparison. */
std::string
knobFields(const HybridConfig &c)
{
    std::ostringstream out;
    out << simplify::strengthName(c.simplify_strength) << ' '
        << topology::kindName(c.topology) << ' ' << c.sampler << ' '
        << c.num_reads << ' ' << c.annealer.noise.coefficient_sigma
        << ' ' << c.annealer.noise.readout_flip_prob << ' '
        << c.annealer.greedy_finish << ' ' << c.annealer.attempts;
    return out.str();
}

/**
 * Run parseFlag over @p words as a CLI would (argv[0] first); false
 * at the first word it does not apply.
 */
bool
parseWords(std::vector<std::string> words, HybridConfig &config,
           std::string &error)
{
    words.insert(words.begin(), "cli");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i)
        if (!parseFlag(argc, argv.data(), i, config, error))
            return false;
    return true;
}

/** A value each row accepts that differs from the default. */
std::string
sampleValue(const Knob &knob)
{
    const std::string flag = knob.flag;
    if (flag == "simplify")
        return "full";
    if (flag == "topology")
        return "zephyr";
    if (flag == "sampler")
        return "sa";
    return "7";
}

constexpr const char *kSubmitExpected =
    "bad option (expected simplify=<off|light|full> "
    "or topology=<chimera|pegasus|zephyr>): ";
constexpr const char *kOpenExpected =
    "bad option (expected simplify=<off|light|full>): ";

TEST(Knobs, EveryRowSetsTheSameConfigFromCliAndSubmit)
{
    ASSERT_EQ(knobs().size(), 5u);
    for (const Knob &knob : knobs()) {
        SCOPED_TRACE(knob.flag);
        const std::string value = knob.syntax ? sampleValue(knob) : "";
        HybridConfig cli;
        std::string error;
        std::vector<std::string> words = {"--" + std::string(knob.flag)};
        if (knob.syntax)
            words.push_back(value);
        ASSERT_TRUE(parseWords(words, cli, error)) << error;
        EXPECT_NE(knobFields(cli), knobFields(HybridConfig{}));

        // The `--flag=VALUE` spelling is the same flag.
        if (knob.syntax) {
            HybridConfig joined;
            ASSERT_TRUE(parseWords(
                {"--" + std::string(knob.flag) + "=" + value}, joined,
                error));
            EXPECT_EQ(knobFields(joined), knobFields(cli));
        }

        std::string key = knob.key ? knob.key : knob.flag;
        for (char &c : key)
            if (c == '-')
                c = '_';
        const std::string token = key + "=" + (knob.syntax ? value : "1");
        const service::Request submit =
            service::parseRequest("SUBMIT acme 0 job " + token);
        const service::Request open =
            service::parseRequest("OPEN acme " + token);
        if (!knob.key) {
            EXPECT_EQ(submit.verb, service::Verb::Invalid);
            EXPECT_EQ(submit.error, kSubmitExpected + token);
            EXPECT_EQ(open.error, kOpenExpected + token);
            continue;
        }
        ASSERT_EQ(submit.verb, service::Verb::Submit) << submit.error;
        HybridConfig over;
        applyOverrides(submit.overrides, over);
        EXPECT_EQ(knobFields(over), knobFields(cli));
        if (knob.open) {
            ASSERT_EQ(open.verb, service::Verb::Open) << open.error;
            HybridConfig session;
            applyOverrides(open.overrides, session);
            EXPECT_EQ(knobFields(session), knobFields(cli));
        } else {
            EXPECT_EQ(open.error, kOpenExpected + token);
        }
    }
}

TEST(Knobs, ProtocolUsageListsTheKeyedRows)
{
    EXPECT_EQ(service::parseRequest("SUBMIT acme 3").error,
              "usage: SUBMIT <tenant> <priority> <name> "
              "[simplify=<off|light|full>] "
              "[topology=<chimera|pegasus|zephyr>]");
    EXPECT_EQ(service::parseRequest("OPEN").error,
              "usage: OPEN <tenant> [simplify=<off|light|full>]");
    EXPECT_EQ(service::parseRequest(
                  "OPEN acme simplify=full simplify=off")
                  .verb,
              service::Verb::Invalid);
}

TEST(Knobs, CliRejectsBadValuesInsteadOfClamping)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--num-reads", "0"},        {"--num-reads", "2x"},
        {"--num-reads", "4097"},
        {"--topology", "kite"},      {"--simplify", "max"},
        {"--num-reads"},             {"--sampler", "bogus"},
        {"--sampler", "async"},
        {"--sampler", "batch"},      {"--sampler=sync"},
    };
    for (const auto &words : bad) {
        SCOPED_TRACE(words[0]);
        HybridConfig config;
        std::string error;
        EXPECT_FALSE(parseWords(words, config, error));
        EXPECT_EQ(knobFields(config), knobFields(HybridConfig{}));
        EXPECT_FALSE(error.empty());
    }
    HybridConfig config;
    std::string error;
    parseWords({"--topology", "kite"}, config, error);
    EXPECT_EQ(error, "bad --topology: kite (expected "
                     "chimera|pegasus|zephyr)");
    parseWords({"--num-reads"}, config, error);
    EXPECT_EQ(error, "missing value for --num-reads");

    // Range ends are fine.
    ASSERT_TRUE(parseWords({"--num-reads", "4096"}, config, error));
    EXPECT_EQ(config.num_reads, 4096);
    ASSERT_TRUE(parseWords({"--num-reads=1"}, config, error));
    EXPECT_EQ(config.num_reads, 1);
}

TEST(Knobs, SamplerSyntaxIsTheBackendNames)
{
    std::string names;
    for (const std::string &name : anneal::samplerNames())
        names += (names.empty() ? "" : "|") + name;
    for (const Knob &knob : knobs()) {
        if (std::string(knob.flag) == "sampler")
            EXPECT_EQ(knob.syntax, names);
    }
    for (const std::string &name : anneal::samplerNames()) {
        HybridConfig config;
        std::string error;
        ASSERT_TRUE(parseWords({"--sampler", name}, config, error))
            << error;
        EXPECT_EQ(config.sampler, name);
    }
}

TEST(Knobs, ParseNumberTakesWholeWordsInRange)
{
    EXPECT_EQ(parseNumber<int>("12", 1, kMaxCount), 12);
    EXPECT_EQ(parseNumber<std::int64_t>("-1", -1), -1);
    EXPECT_EQ(parseNumber<std::size_t>("2048", 0), 2048u);
    EXPECT_EQ(parseNumber<double>("0.5", 0.0), 0.5);
    for (const char *word : {"", "abc", "12x", " 12", "+3", "0"})
        EXPECT_FALSE(parseNumber<int>(word, 1, kMaxCount)) << word;
    EXPECT_FALSE(parseNumber<int>("4097", 1, kMaxCount));
    EXPECT_FALSE(parseNumber<std::size_t>("-1", 0));
    EXPECT_FALSE(parseNumber<std::int64_t>("-2", -1));
    for (const char *word : {"nan", "inf", "-0.5", "1e999", "x"})
        EXPECT_FALSE(parseNumber<double>(word, 0.0)) << word;

    // The CLI form names the flag and leaves the target alone.
    std::string words[] = {"cli", "--workers", "abc"};
    char *argv[] = {words[0].data(), words[1].data(), words[2].data()};
    int i = 1, workers = 4;
    std::string error;
    EXPECT_FALSE(parseNumberFlag(argv, i, error, workers, 1, kMaxCount));
    EXPECT_EQ(error, "bad --workers: abc");
    EXPECT_EQ(workers, 4);
    EXPECT_EQ(i, 2);
}

TEST(Knobs, NonKnobWordsAreLeftToTheCli)
{
    for (const char *word :
         {"--warmup", "--bogus", "file.cnf", "-v", "--noisy=1",
          "--depth"}) {
        HybridConfig config;
        std::string error;
        EXPECT_FALSE(parseWords({word}, config, error)) << word;
        EXPECT_TRUE(error.empty()) << word;
    }
}

TEST(Knobs, ReadsGroupsIsNotAKnob)
{
    // num_reads alone sets the lockstep partition: --reads-groups is
    // left to the CLI as a word it does not know (exit 2), and the
    // reads_groups= key is foreign to SUBMIT and OPEN (ERR).
    HybridConfig config;
    std::string error;
    EXPECT_FALSE(parseWords({"--reads-groups", "2"}, config, error));
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(parseWords({"--reads-groups=2"}, config, error));
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(knobFields(config), knobFields(HybridConfig{}));

    const service::Request submit =
        service::parseRequest("SUBMIT acme 0 job reads_groups=2");
    EXPECT_EQ(submit.verb, service::Verb::Invalid);
    EXPECT_EQ(submit.error, std::string(kSubmitExpected) + "reads_groups=2");
    const service::Request open =
        service::parseRequest("OPEN acme reads_groups=2");
    EXPECT_EQ(open.verb, service::Verb::Invalid);
    EXPECT_EQ(open.error, std::string(kOpenExpected) + "reads_groups=2");
}

TEST(Knobs, NoisyIsTheDevicePreset)
{
    HybridConfig config;
    config.annealer = anneal::QuantumAnnealer::Options::simulator();
    std::string error;
    ASSERT_TRUE(parseWords({"--noisy"}, config, error));
    const auto device = anneal::QuantumAnnealer::Options::dwave2000q();
    EXPECT_TRUE(config.annealer.greedy_finish);
    EXPECT_EQ(config.annealer.attempts, 1);
    EXPECT_EQ(config.annealer.noise.coefficient_sigma,
              device.noise.coefficient_sigma);
    EXPECT_GT(config.annealer.noise.coefficient_sigma, 0.0);
}

} // namespace
} // namespace hyqsat::core
