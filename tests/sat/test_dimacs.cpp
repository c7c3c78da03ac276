#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "sat/dimacs.h"
#include "tests/sat/helpers.h"

namespace hyqsat::sat {
namespace {

TEST(Dimacs, ParsesMinimalFormula)
{
    const auto cnf = parseDimacsString(
        "p cnf 3 2\n1 -2 3 0\n-1 2 0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numVars(), 3);
    EXPECT_EQ(cnf->numClauses(), 2);
    EXPECT_EQ(cnf->clause(0)[0], mkLit(0, false));
    EXPECT_EQ(cnf->clause(0)[1], mkLit(1, true));
    EXPECT_EQ(cnf->clause(1)[0], mkLit(0, true));
}

TEST(Dimacs, SkipsCommentsAnywhere)
{
    const auto cnf = parseDimacsString(
        "c a comment\np cnf 2 1\nc mid comment\n1 2 0\nc trailing\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
}

TEST(Dimacs, SkipsSatlibPercentTrailer)
{
    const auto cnf = parseDimacsString(
        "p cnf 2 1\n1 2 0\n%\n0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
    EXPECT_EQ(cnf->clause(0).size(), 2u);
}

TEST(Dimacs, ClauseSpanningMultipleLines)
{
    const auto cnf = parseDimacsString("p cnf 3 1\n1\n2\n3 0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
    EXPECT_EQ(cnf->clause(0).size(), 3u);
}

TEST(Dimacs, MissingHeaderRejected)
{
    EXPECT_FALSE(parseDimacsString("1 2 0\n").has_value());
}

TEST(Dimacs, MalformedHeaderRejected)
{
    EXPECT_FALSE(parseDimacsString("p wnf 2 1\n1 2 0\n").has_value());
    EXPECT_FALSE(parseDimacsString("p cnf x y\n1 2 0\n").has_value());
}

TEST(Dimacs, GarbageTokenRejected)
{
    EXPECT_FALSE(
        parseDimacsString("p cnf 2 1\n1 banana 0\n").has_value());
}

TEST(Dimacs, HeaderClauseCountMismatchTolerated)
{
    const auto cnf =
        parseDimacsString("p cnf 2 5\n1 2 0\n"); // says 5, has 1
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
}

TEST(Dimacs, FinalClauseWithoutTerminatorAccepted)
{
    const auto cnf = parseDimacsString("p cnf 2 1\n1 2\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
}

TEST(Dimacs, VariablesBeyondHeaderGrowCount)
{
    const auto cnf = parseDimacsString("p cnf 1 1\n1 5 0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numVars(), 5);
}

TEST(Dimacs, RoundTripPreservesFormula)
{
    Rng rng(7);
    const Cnf original = testing::randomCnf(10, 30, 3, rng);
    const auto parsed = parseDimacsString(toDimacsString(original));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->numClauses(), original.numClauses());
    EXPECT_EQ(parsed->numVars(), original.numVars());
    for (int i = 0; i < original.numClauses(); ++i)
        EXPECT_EQ(parsed->clause(i), original.clause(i));
}

TEST(Dimacs, FileRoundTrip)
{
    Rng rng(11);
    const Cnf original = testing::randomCnf(6, 12, 3, rng);
    const std::string path = ::testing::TempDir() + "/roundtrip.cnf";
    writeDimacsFile(original, path);
    const auto parsed = parseDimacsFile(path);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->numClauses(), original.numClauses());
}

TEST(Dimacs, MissingFileIsNullopt)
{
    const std::string path = ::testing::TempDir() + "/no-such-file.cnf";
    std::remove(path.c_str());
    EXPECT_FALSE(parseDimacsFile(path).has_value());
}

TEST(Dimacs, NameEmittedAsComment)
{
    Cnf cnf(1);
    cnf.setName("instance-7");
    cnf.addClause(mkLit(0));
    const auto text = toDimacsString(cnf);
    EXPECT_NE(text.find("c instance-7"), std::string::npos);
}

TEST(Dimacs, ViewStreamAndFileOverloadsAgree)
{
    // All entry points delegate to the string_view core, so the same
    // bytes must produce the same formula through every one of them.
    Rng rng(13);
    const Cnf original = testing::randomCnf(8, 20, 3, rng);
    const std::string text = toDimacsString(original);

    const auto from_view = parseDimacs(std::string_view(text));
    const auto from_string = parseDimacsString(text);
    std::istringstream stream(text);
    const auto from_stream = parseDimacs(stream);
    const std::string path = ::testing::TempDir() + "/overloads.cnf";
    writeDimacsFile(original, path);
    const auto from_file = parseDimacsFile(path);

    ASSERT_TRUE(from_view.has_value());
    ASSERT_TRUE(from_string.has_value());
    ASSERT_TRUE(from_stream.has_value());
    ASSERT_TRUE(from_file.has_value());
    for (const auto *parsed :
         {&*from_view, &*from_string, &*from_stream, &*from_file}) {
        ASSERT_EQ(parsed->numClauses(), original.numClauses());
        EXPECT_EQ(parsed->numVars(), original.numVars());
        for (int i = 0; i < original.numClauses(); ++i)
            EXPECT_EQ(parsed->clause(i), original.clause(i));
    }
}

TEST(Dimacs, ViewParsesWithoutTrailingNewline)
{
    const auto cnf =
        parseDimacs(std::string_view("p cnf 2 1\n1 -2 0"));
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 1);
}

TEST(Dimacs, PlusSignedLiteralsAccepted)
{
    // `istream >> int` accepts a leading '+'; the from_chars core
    // must keep that behaviour.
    const auto cnf =
        parseDimacsString("p cnf 2 1\n+1 -2 0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->clause(0)[0], mkLit(0, false));
    EXPECT_EQ(cnf->clause(0)[1], mkLit(1, true));
}

TEST(Dimacs, CarriageReturnLineEndingsTolerated)
{
    const auto cnf =
        parseDimacsString("p cnf 2 2\r\n1 2 0\r\n-1 -2 0\r\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numClauses(), 2);
}

TEST(Dimacs, ViewRejectsMalformedInput)
{
    EXPECT_FALSE(parseDimacs(std::string_view("")).has_value());
    EXPECT_FALSE(
        parseDimacs(std::string_view("1 2 0\n")).has_value());
    EXPECT_FALSE(
        parseDimacs(std::string_view("p cnf -1 1\n1 0\n"))
            .has_value());
    EXPECT_FALSE(
        parseDimacs(std::string_view("p cnf 2 1\n1 two 0\n"))
            .has_value());
}

TEST(Dimacs, LiteralBoundIsTwoToTheThirty)
{
    // 2^30 is the largest variable a Lit packs without overflow.
    const auto cnf =
        parseDimacsString("p cnf 1 1\n1073741824 -1073741824 0\n");
    ASSERT_TRUE(cnf.has_value());
    EXPECT_EQ(cnf->numVars(), kMaxDimacsVar);
    EXPECT_EQ(cnf->clause(0)[0], mkLit(kMaxDimacsVar - 1, false));
    EXPECT_EQ(cnf->clause(0)[1], mkLit(kMaxDimacsVar - 1, true));
    EXPECT_EQ(toDimacs(cnf->clause(0)[1]), -kMaxDimacsVar);

    for (const char *lit :
         {"1073741825", "-1073741825", "2147483647", "-2147483647",
          "-2147483648", "2147483648"}) {
        EXPECT_FALSE(parseDimacsString(std::string("p cnf 1 1\n") +
                                       lit + " 0\n")
                         .has_value())
            << lit;
    }
}

TEST(Dimacs, HeaderVariableCountBeyondBoundRejected)
{
    EXPECT_TRUE(
        parseDimacsString("p cnf 1073741824 1\n1 0\n").has_value());
    EXPECT_FALSE(
        parseDimacsString("p cnf 1073741825 1\n1 0\n").has_value());
    EXPECT_FALSE(
        parseDimacsString("p cnf 2147483647 1\n1 0\n").has_value());
}

} // namespace
} // namespace hyqsat::sat
