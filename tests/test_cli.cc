/**
 * @file
 * Unit tests for the command-line option parser.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"

using unico::common::CliArgs;

namespace {

CliArgs
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v(argv);
    return CliArgs(static_cast<int>(v.size()), v.data());
}

} // namespace

TEST(Cli, ParsesKeyValuePairs)
{
    const auto args = parse({"prog", "--seed", "42", "--out", "x.csv"});
    EXPECT_EQ(args.getInt("seed", 0), 42);
    EXPECT_EQ(args.getString("out", ""), "x.csv");
}

TEST(Cli, EqualsSyntax)
{
    const auto args = parse({"prog", "--scale=0.5"});
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.0), 0.5);
}

TEST(Cli, FlagsWithoutValues)
{
    const auto args = parse({"prog", "--verbose", "--seed", "3"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.getInt("seed", 0), 3);
}

TEST(Cli, DefaultsWhenAbsent)
{
    const auto args = parse({"prog"});
    EXPECT_FALSE(args.has("seed"));
    EXPECT_EQ(args.getInt("seed", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 2.5), 2.5);
    EXPECT_EQ(args.getString("out", "def"), "def");
}

TEST(Cli, PositionalArguments)
{
    const auto args = parse({"prog", "input.txt", "--k", "1", "more"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.txt");
    EXPECT_EQ(args.positional()[1], "more");
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, NegativeNumbers)
{
    const auto args = parse({"prog", "--offset", "-12"});
    EXPECT_EQ(args.getInt("offset", 0), -12);
}

TEST(Cli, RepeatedOptionKeepsEveryValue)
{
    const auto args =
        parse({"prog", "--model", "resnet", "--seed", "1", "--model=vit",
               "--seed", "2"});
    EXPECT_EQ(args.getAll("model"),
              (std::vector<std::string>{"resnet", "vit"}));
    EXPECT_EQ(args.getString("model", ""), "vit");
    EXPECT_EQ(args.getInt("seed", 0), 2) << "scalar getters read the last";
    EXPECT_TRUE(args.getAll("absent").empty());
    EXPECT_EQ(args.optionNames(),
              (std::vector<std::string>{"model", "seed"}));
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag)
{
    const auto args = parse({"prog", "--batch", "abc", "--seed", "3x",
                             "--rate", "0.5.1", "--scale", "1e", "--big",
                             "99999999999999999999", "--tiny", "-"});
    for (const char *flag : {"batch", "seed", "big", "tiny"}) {
        try {
            args.getInt(flag, 0);
            ADD_FAILURE() << "--" << flag << " parsed";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(args.getDouble("rate", 0.0), std::invalid_argument);
    EXPECT_THROW(args.getDouble("scale", 0.0), std::invalid_argument);
    EXPECT_THROW(args.getDouble("batch", 0.0), std::invalid_argument);
}

TEST(Cli, WellFormedNumbersStillParse)
{
    const auto args = parse({"prog", "--a", "+7", "--b", "-0", "--c",
                             "2.5e-1", "--d", "-3", "--e="});
    EXPECT_EQ(args.getInt("a", 0), 7);
    EXPECT_EQ(args.getInt("b", 1), 0);
    EXPECT_DOUBLE_EQ(args.getDouble("c", 0.0), 0.25);
    EXPECT_DOUBLE_EQ(args.getDouble("d", 0.0), -3.0);
    EXPECT_EQ(args.getInt("e", 9), 9) << "an empty value reads as absent";
}
