/**
 * @file
 * Tests for core::RunSpec and its two faces: the command line
 * (cli::runSpecFromArgs) and the JSON job document (runSpecFromJson /
 * toJson). Table-driven: every valid command line round-trips
 * argv -> RunSpec -> JSON -> RunSpec unchanged; every invalid input
 * gets the same validate() message from both faces and is refused by
 * JobManager::submit as BadSpec.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cli/run_spec_args.hh"
#include "core/job_manager.hh"
#include "core/run_spec.hh"

using namespace unico;
using core::RunSpec;

namespace {

/** runSpecFromArgs over @p tokens (argv[0] is supplied). */
RunSpec
fromArgs(const std::vector<std::string> &tokens,
         const std::vector<std::string> &process_flags = {})
{
    std::vector<const char *> argv = {"co_search_cli"};
    for (const auto &t : tokens)
        argv.push_back(t.c_str());
    const common::CliArgs args(static_cast<int>(argv.size()), argv.data());
    return cli::runSpecFromArgs(args, process_flags);
}

RunSpec
fromJson(const std::string &text)
{
    return core::runSpecFromJson(common::Json::parse(text));
}

/** A manager that never runs anything: every submit here is bad. */
core::JobManagerConfig
quietManager()
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = 1;
    cfg.shutdownFanout = false;
    return cfg;
}

} // namespace

TEST(RunSpec, DefaultsAreTheSameOnEveryFace)
{
    const RunSpec defaults;
    EXPECT_EQ(fromArgs({}), defaults);
    EXPECT_EQ(fromJson("{}"), defaults);
    EXPECT_EQ(defaults.batch, 20);
    EXPECT_EQ(defaults.iters, 8);
    EXPECT_EQ(defaults.bmax, 200);
    EXPECT_EQ(defaults.faultSeed, 7u);
    EXPECT_EQ(defaults.surrogateKeep, 0.0) << "screening is off";
    EXPECT_EQ(fromArgs({"--surrogate"}).surrogateKeep,
              surrogate::SurrogateOptions{}.keep);
}

TEST(RunSpec, ValidCommandLinesRoundTripThroughJson)
{
    const std::vector<std::vector<std::string>> valid = {
        {"--model", "resnet"},
        {"resnet", "vit", "--model", "mobilenet", "--batch", "8",
         "--iters", "3", "--bmax", "64", "--seed", "3"},
        {"--model", "resnet", "--algo", "mobohb", "--threads", "4",
         "--fault-rate", "0.1", "--hang-rate", "0.05", "--corrupt-rate",
         "0.05", "--fault-seed", "9"},
        {"--backend", "ascend", "--model", "unet", "--area-budget",
         "150.5", "--max-shapes", "2"},
        {"--model", "resnet", "--scenario", "cloud", "--engine", "genetic",
         "--checkpoint", "ck.json", "--resume", "--checkpoint-every", "2",
         "--checkpoint-keep", "5", "--csv-prefix", "out/p"},
        {"--model", "resnet", "--surrogate"},
        {"--model", "resnet", "--surrogate-keep", "0.4", "--seed",
         "9007199254740991"},
        {"--model", "resnet", "--surrogate", "--no-surrogate"},
        {"--workload", "net.txt", "--model", "resnet", "--algo", "nsga2"},
        {"--model", "resnet", "--model", "vit", "--algo", "hasco",
         "--threads", "256", "--fault-rate", "1", "--surrogate-keep", "1"},
    };
    for (const auto &tokens : valid) {
        const RunSpec spec = fromArgs(tokens);
        EXPECT_EQ(core::validate(spec), "") << tokens[1];
        const common::Json doc = core::toJson(spec);
        EXPECT_EQ(core::runSpecFromJson(doc), spec) << doc.dump();
        EXPECT_EQ(fromJson(doc.dump()), spec) << doc.dump();
    }
}

TEST(RunSpec, InvalidInputGetsOneMessageFromBothFaces)
{
    struct Case
    {
        std::vector<std::string> argv;
        std::string json;
        std::string message; ///< substring of validate()'s message
    };
    const std::vector<Case> cases = {
        {{}, "{}", "at least one model"},
        {{"resnet", "--threads", "0"}, R"({"model":"resnet","threads":0})",
         "threads must be 1..256"},
        {{"resnet", "--threads", "257"},
         R"({"model":"resnet","threads":257})", "threads must be 1..256"},
        {{"resnet", "--batch", "0"}, R"({"model":"resnet","batch":0})",
         "batch, iters and bmax"},
        {{"resnet", "--iters", "-1"}, R"({"model":"resnet","iters":-1})",
         "batch, iters and bmax"},
        {{"resnet", "--bmax", "0"}, R"({"model":"resnet","bmax":0})",
         "batch, iters and bmax"},
        {{"resnet", "--fault-rate", "2"},
         R"({"model":"resnet","fault_rate":2})", "fault rates"},
        {{"resnet", "--hang-rate", "-0.5"},
         R"({"model":"resnet","hang_rate":-0.5})", "fault rates"},
        {{"resnet", "--corrupt-rate", "1.5"},
         R"({"model":"resnet","corrupt_rate":1.5})", "fault rates"},
        {{"resnet", "--checkpoint", "c.json", "--checkpoint-every", "0"},
         R"({"model":"resnet","checkpoint":"c.json","checkpoint_every":0})",
         "checkpoint_every and checkpoint_keep"},
        {{"resnet", "--checkpoint-keep", "0"},
         R"({"model":"resnet","checkpoint_keep":0})",
         "checkpoint_every and checkpoint_keep"},
        {{"resnet", "--resume"}, R"({"model":"resnet","resume":true})",
         "resume requires a checkpoint"},
        {{"resnet", "--surrogate-keep", "1.5"},
         R"({"model":"resnet","surrogate_keep":1.5})", "surrogate_keep"},
        {{"resnet", "--algo", "bogus"}, R"({"model":"resnet","algo":"bogus"})",
         "unknown algorithm 'bogus'"},
        {{"resnet", "--backend", "tpu"},
         R"({"model":"resnet","backend":"tpu"})", "unknown backend 'tpu'"},
        {{"resnet", "--scenario", "mars"},
         R"({"model":"resnet","scenario":"mars"})", "unknown scenario"},
        {{"resnet", "--engine", "quantum"},
         R"({"model":"resnet","engine":"quantum"})", "unknown engine"},
        {{"resnet", "--area-budget", "100"},
         R"({"model":"resnet","area_budget":100})",
         "does not support --area-budget"},
        {{"unet", "--backend", "ascend", "--scenario", "edge"},
         R"({"model":"unet","backend":"ascend","scenario":"edge"})",
         "does not support --scenario"},
        {{"unet", "--backend", "ascend", "--area-budget", "0"},
         R"({"model":"unet","backend":"ascend","area_budget":0})",
         "--area-budget must be positive"},
        {{"resnet", "--max-shapes", "0"},
         R"({"model":"resnet","max_shapes":0})",
         "--max-shapes must be positive"},
    };
    core::JobManager mgr(quietManager());
    for (const Case &c : cases) {
        const RunSpec from_args = fromArgs(c.argv);
        const RunSpec from_json = fromJson(c.json);
        EXPECT_EQ(from_args, from_json) << c.json;
        const std::string why = core::validate(from_args);
        EXPECT_NE(why.find(c.message), std::string::npos)
            << c.json << ": " << why;
        EXPECT_EQ(core::validate(from_json), why) << c.json;
        const core::SubmitResult sub = mgr.submit(from_json);
        EXPECT_EQ(sub.error, core::SubmitError::BadSpec) << c.json;
        EXPECT_EQ(sub.message, why) << c.json;
    }
    EXPECT_TRUE(mgr.list().empty()) << "a bad spec must never be queued";
}

TEST(RunSpec, MalformedCommandLinesAreRejectedByName)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"resnet", "--iter", "2"}, "unknown option --iter"},
            {{"resnet", "--workers", "2"}, "unknown option --workers"},
            {{"resnet", "--batch", "abc"}, "--batch"},
            {{"resnet", "--seed", "3x"}, "--seed"},
            {{"resnet", "--fault-rate", "0.1x"}, "--fault-rate"},
            {{"resnet", "--batch", "4294967297"}, "--batch is out of range"},
            {{"resnet", "--checkpoint"}, "--checkpoint needs a value"},
            {{"--checkpoint", "c.json", "--resume", "resnet"},
             "--resume takes no value"},
        };
    for (const auto &[tokens, message] : cases) {
        try {
            fromArgs(tokens);
            ADD_FAILURE() << "accepted: " << message;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
                << e.what();
        }
    }
    // A caller's process flags are left to it, and only those.
    EXPECT_NO_THROW(fromArgs({"resnet", "--cache-mb", "8"}, {"cache-mb"}));
    EXPECT_THROW(fromArgs({"resnet", "--cache-mb", "8"}),
                 std::invalid_argument);
}

TEST(RunSpec, MalformedJsonIsRejectedByField)
{
    for (const char *text : {R"({"model":"resnet","iter":2})",
                             R"({"model":"resnet","batch":2.5})",
                             R"({"model":"resnet","batch":4294967297})",
                             R"({"model":3})", "[1]"}) {
        EXPECT_THROW(fromJson(text), std::runtime_error) << text;
    }
    try {
        fromJson(R"({"model":"resnet","iter":2})");
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("'iter'"), std::string::npos);
    }
}

TEST(RunSpec, RepeatedModelsAndWorkloadsAddUp)
{
    const RunSpec spec = fromArgs({"vit", "--workload", "a.net", "b.net",
                                   "--model", "resnet", "--model",
                                   "mobilenet"});
    EXPECT_EQ(spec.models,
              (std::vector<std::string>{"resnet", "mobilenet", "vit"}));
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"a.net", "b.net"}));
    EXPECT_EQ(fromJson(R"({"model":"resnet","models":["vit"]})").models,
              (std::vector<std::string>{"resnet", "vit"}));

    const auto nets =
        core::buildNetworks(fromArgs({"--model", "resnet", "--model", "vit"}));
    ASSERT_EQ(nets.size(), 2u) << "the first --model must not be dropped";
}

TEST(RunSpec, HelpersCarryEveryField)
{
    const RunSpec spec = fromArgs(
        {"resnet", "--algo", "hasco", "--batch", "5", "--iters", "4",
         "--bmax", "33", "--seed", "12", "--threads", "3", "--checkpoint",
         "c.json", "--resume", "--checkpoint-every", "2",
         "--checkpoint-keep", "4", "--fault-rate", "0.1", "--hang-rate",
         "0.2", "--corrupt-rate", "0.3", "--fault-seed", "5",
         "--surrogate-keep", "0.5"});
    const core::DriverConfig cfg = core::driverConfig(spec);
    const core::DriverConfig preset = core::DriverConfig::hascoLike();
    EXPECT_EQ(cfg.budgetMode, preset.budgetMode);
    EXPECT_EQ(cfg.batchSize, 5);
    EXPECT_EQ(cfg.maxIter, 4);
    EXPECT_EQ(cfg.sh.bMax, 33);
    EXPECT_EQ(cfg.seed, 12u);
    EXPECT_EQ(cfg.realThreads, 3u);
    EXPECT_EQ(cfg.checkpointPath, "c.json");
    EXPECT_TRUE(cfg.resumeFromCheckpoint);
    EXPECT_EQ(cfg.checkpointEvery, 2);
    EXPECT_EQ(cfg.checkpointKeep, 4);

    const common::FaultSpec fault = core::faultSpec(spec);
    EXPECT_EQ(fault.transientRate, 0.1);
    EXPECT_EQ(fault.hangRate, 0.2);
    EXPECT_EQ(fault.corruptRate, 0.3);
    EXPECT_EQ(fault.seed, 5u);

    const surrogate::SurrogateOptions screen = core::surrogateOptions(spec);
    EXPECT_TRUE(screen.enabled);
    EXPECT_EQ(screen.keep, 0.5);
    EXPECT_FALSE(core::surrogateOptions(RunSpec{}).enabled);

    EXPECT_THROW(core::driverConfig(fromArgs({"resnet", "--algo", "nsga2"})),
                 std::invalid_argument);
}

TEST(RunSpec, JobManagerRefusesNsga2)
{
    const RunSpec spec = fromArgs({"resnet", "--algo", "nsga2"});
    EXPECT_EQ(core::validate(spec), "") << "the CLI runs nsga2";
    core::JobManager mgr(quietManager());
    const core::SubmitResult sub = mgr.submit(spec);
    EXPECT_EQ(sub.error, core::SubmitError::BadSpec);
    EXPECT_NE(sub.message.find("nsga2"), std::string::npos);
}
