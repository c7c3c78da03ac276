/**
 * @file
 * Line-protocol round-trips: request parsing for every verb
 * (including the malformed diagnostics), response formatting, and
 * the RESULT format/parse pair the client and server share.
 */

#include <gtest/gtest.h>

#include "service/protocol.h"

namespace hyqsat::service {
namespace {

/** The value @p req overrides @p key with ("" = no override). */
std::string
overrideOf(const Request &req, std::string_view key)
{
    std::string value;
    for (const core::KnobOverride &o : req.overrides)
        if (o.knob->key == key)
            value = o.value;
    return value;
}

TEST(ServiceProtocol, SplitTokensSkipsBlankRuns)
{
    const auto tokens = splitTokens("  SUBMIT\tacme  3 job-1\r");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0], "SUBMIT");
    EXPECT_EQ(tokens[1], "acme");
    EXPECT_EQ(tokens[2], "3");
    EXPECT_EQ(tokens[3], "job-1");
    EXPECT_TRUE(splitTokens("   \t ").empty());
}

TEST(ServiceProtocol, ParsesSubmit)
{
    const Request req = parseRequest("SUBMIT acme 3 job-1");
    EXPECT_EQ(req.verb, Verb::Submit);
    EXPECT_EQ(req.tenant, "acme");
    EXPECT_EQ(req.priority, 3);
    EXPECT_EQ(req.name, "job-1");
}

TEST(ServiceProtocol, SubmitArityErrors)
{
    EXPECT_EQ(parseRequest("SUBMIT acme 3").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme 3 a b").verb, Verb::Invalid);
    EXPECT_FALSE(parseRequest("SUBMIT acme 3").error.empty());
}

TEST(ServiceProtocol, SubmitSimplifyOption)
{
    // The only accepted fifth token is a valid simplify=<level>.
    const Request req =
        parseRequest("SUBMIT acme 3 job-1 simplify=full");
    EXPECT_EQ(req.verb, Verb::Submit);
    EXPECT_EQ(req.name, "job-1");
    EXPECT_EQ(overrideOf(req, "simplify"), "full");
    EXPECT_EQ(overrideOf(parseRequest("SUBMIT acme 3 j simplify=off"),
                         "simplify"),
              "off");
    EXPECT_EQ(overrideOf(parseRequest("SUBMIT acme 3 j simplify=light"),
                         "simplify"),
              "light");
    // A plain SUBMIT leaves the override empty (daemon default).
    EXPECT_TRUE(parseRequest("SUBMIT acme 3 job-1").overrides.empty());
    // Misspelled levels and foreign key=value tokens stay Invalid.
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j simplify=max").verb,
              Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j simplify=").verb,
              Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j depth=2").verb,
              Verb::Invalid);
}

TEST(ServiceProtocol, SubmitTopologyAndReadsBatchOptions)
{
    // topology= composes with simplify= in any order.
    const Request req = parseRequest(
        "SUBMIT acme 3 job-1 topology=pegasus simplify=light");
    EXPECT_EQ(req.verb, Verb::Submit);
    EXPECT_EQ(overrideOf(req, "simplify"), "light");
    EXPECT_EQ(overrideOf(req, "topology"), "pegasus");

    const Request chimera =
        parseRequest("SUBMIT acme 0 j topology=chimera");
    EXPECT_EQ(chimera.verb, Verb::Submit);
    EXPECT_EQ(overrideOf(chimera, "topology"), "chimera");

    // Defaults when absent; bad values stay Invalid.
    const Request plain = parseRequest("SUBMIT acme 3 job-1");
    EXPECT_TRUE(overrideOf(plain, "topology").empty());
    EXPECT_EQ(overrideOf(parseRequest("SUBMIT acme 3 j topology=zephyr"),
                         "topology"),
              "zephyr");
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j topology=kite").verb,
              Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j topology=").verb,
              Verb::Invalid);

    // Every multi-read sample runs its extra reads in lockstep, so
    // there is no reads_batch= switch: it is a foreign token.
    EXPECT_EQ(parseRequest("SUBMIT acme 3 j reads_batch=1").verb,
              Verb::Invalid);
}

TEST(ServiceProtocol, ParsesWaitAndStatus)
{
    const Request wait = parseRequest("WAIT 42");
    EXPECT_EQ(wait.verb, Verb::Wait);
    EXPECT_EQ(wait.id, 42u);
    const Request status = parseRequest("STATUS 7");
    EXPECT_EQ(status.verb, Verb::Status);
    EXPECT_EQ(status.id, 7u);
    EXPECT_EQ(parseRequest("WAIT").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("WAIT nope").verb, Verb::Invalid);
}

TEST(ServiceProtocol, ParsesBareVerbs)
{
    EXPECT_EQ(parseRequest("METRICS").verb, Verb::Metrics);
    EXPECT_EQ(parseRequest("PING").verb, Verb::Ping);
    EXPECT_EQ(parseRequest("QUIT").verb, Verb::Quit);
    EXPECT_EQ(parseRequest("").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("FROBNICATE").verb, Verb::Invalid);
}

TEST(ServiceProtocol, ParsesShutdownPolicies)
{
    EXPECT_EQ(parseRequest("SHUTDOWN").drain_policy,
              DrainPolicy::FinishQueued);
    EXPECT_EQ(parseRequest("SHUTDOWN finish").drain_policy,
              DrainPolicy::FinishQueued);
    EXPECT_EQ(parseRequest("SHUTDOWN cancel").drain_policy,
              DrainPolicy::CancelPending);
    EXPECT_EQ(parseRequest("SHUTDOWN cancel").verb, Verb::Shutdown);
    EXPECT_EQ(parseRequest("SHUTDOWN maybe").verb, Verb::Invalid);
}

TEST(ServiceProtocol, FormatsSubmissionVerdicts)
{
    Submission ok;
    ok.accepted = true;
    ok.id = 17;
    EXPECT_EQ(formatSubmission(ok), "OK 17");

    Submission no;
    no.reject_reason = "queue_full";
    EXPECT_EQ(formatSubmission(no), "REJECTED queue_full");
}

TEST(ServiceProtocol, ResultRoundTrips)
{
    InstanceRecord rec;
    rec.status = "SAT";
    rec.wall_s = 0.25;
    rec.vars = 150;
    rec.clauses = 645;
    rec.conflicts = 1234;
    rec.winner = "cdcl";

    const std::string line = formatResult(9, rec);
    const auto parsed = parseResult(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, 9u);
    EXPECT_EQ(parsed->second.status, "SAT");
    EXPECT_DOUBLE_EQ(parsed->second.wall_s, 0.25);
    EXPECT_EQ(parsed->second.vars, 150);
    EXPECT_EQ(parsed->second.clauses, 645);
    EXPECT_EQ(parsed->second.conflicts, 1234u);
    EXPECT_EQ(parsed->second.winner, "cdcl");
}

TEST(ServiceProtocol, ResultWithoutWinnerUsesPlaceholder)
{
    InstanceRecord rec;
    rec.status = "TIMEOUT";
    const std::string line = formatResult(3, rec);
    const auto parsed = parseResult(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->second.winner.empty());
}

TEST(ServiceProtocol, ParseResultRejectsMalformedLines)
{
    EXPECT_FALSE(parseResult("RESULT 1 SAT").has_value());
    EXPECT_FALSE(parseResult("NONSENSE").has_value());
    EXPECT_FALSE(parseResult("").has_value());
}

TEST(ServiceProtocol, FormatsStates)
{
    EXPECT_EQ(formatState(4, JobState::Queued, ""), "STATE 4 QUEUED");
    EXPECT_EQ(formatState(4, JobState::Running, ""),
              "STATE 4 RUNNING");
    EXPECT_EQ(formatState(4, JobState::Done, "SAT"),
              "STATE 4 DONE SAT");
}

} // namespace
} // namespace hyqsat::service
