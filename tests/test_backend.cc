/**
 * @file
 * Tests for the backend table (core/backend.hh): built-in backends,
 * typed lookup failure, per-backend options of a RunSpec with
 * foreign-flag rejection (core::backendOptions) and stack-identity
 * reporting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cli/run_spec_args.hh"
#include "core/backend.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::BackendError;
using core::BackendOptions;

namespace {

/** Backend options of the RunSpec that "--backend @p backend" plus
 *  @p tokens describe. */
BackendOptions
specOptions(const std::string &backend,
            const std::vector<std::string> &tokens)
{
    std::vector<const char *> argv = {"test", "--backend",
                                      backend.c_str()};
    for (const auto &t : tokens)
        argv.push_back(t.c_str());
    const common::CliArgs args(static_cast<int>(argv.size()), argv.data());
    return core::backendOptions(cli::runSpecFromArgs(args));
}

/** Whether @p name is a built-in backend. */
bool
isBackend(const std::string &name)
{
    const auto names = core::backendNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<workload::Network>
nets(const std::string &name)
{
    return {workload::makeNetwork(name)};
}

} // namespace

TEST(BackendRegistry, BuiltinsPresentAndSorted)
{
    EXPECT_TRUE(isBackend("spatial"));
    EXPECT_TRUE(isBackend("ascend"));
    EXPECT_FALSE(isBackend("tpu"));

    const auto names = core::backendNames();
    ASSERT_GE(names.size(), 2u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_NE(std::find(names.begin(), names.end(), "spatial"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ascend"),
              names.end());
    EXPECT_FALSE(core::backendInfo("spatial").description.empty());
    EXPECT_FALSE(core::backendInfo("ascend").description.empty());
}

TEST(BackendRegistry, UnknownBackendThrowsTypedErrorListingKnown)
{
    try {
        core::makeBackendEnv("npu9000", nets("mobilenet"),
                             BackendOptions{});
        FAIL() << "expected BackendError";
    } catch (const BackendError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("npu9000"), std::string::npos);
        EXPECT_NE(msg.find("spatial"), std::string::npos)
            << "error should list the known backends: " << msg;
        EXPECT_NE(msg.find("ascend"), std::string::npos);
    }
}

TEST(BackendRegistry, FactoriesProduceMatchingStackIdentity)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    const auto spatial =
        core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto ascend =
        core::makeBackendEnv("ascend", nets("fsrcnn_120x320"), opt);

    EXPECT_EQ(spatial->backendName(), "spatial");
    EXPECT_EQ(spatial->scenarioName(), "edge");
    EXPECT_NE(spatial->workloadDigest(), 0u);
    EXPECT_FALSE(spatial->expertDefault().has_value());

    EXPECT_EQ(ascend->backendName(), "ascend");
    EXPECT_EQ(ascend->scenarioName(), "area200");
    EXPECT_NE(ascend->workloadDigest(), 0u);
    ASSERT_TRUE(ascend->expertDefault().has_value());
    EXPECT_EQ(ascend->expertDefault()->size(),
              ascend->hwSpace().dims());
}

TEST(BackendRegistry, WorkloadDigestTracksTheLayerStack)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    const auto a = core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto b = core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto c = core::makeBackendEnv("spatial", nets("resnet"), opt);
    EXPECT_EQ(a->workloadDigest(), b->workloadDigest());
    EXPECT_NE(a->workloadDigest(), c->workloadDigest());
}

TEST(BackendRegistry, ScenarioNameFollowsOptions)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.scenario = accel::Scenario::Cloud;
    const auto cloud =
        core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    EXPECT_EQ(cloud->scenarioName(), "cloud");

    opt.areaBudgetMm2 = 120.0;
    const auto ascend =
        core::makeBackendEnv("ascend", nets("fsrcnn_120x320"), opt);
    EXPECT_EQ(ascend->scenarioName(), "area120");
}

TEST(BackendOptionsParse, SpatialDefaultsAndOverrides)
{
    const auto def = specOptions("spatial", {});
    EXPECT_EQ(def.scenario, accel::Scenario::Edge);
    EXPECT_EQ(def.engine, mapping::EngineKind::Annealing);
    EXPECT_EQ(def.maxShapesPerNetwork, 5u);

    const auto cloud = specOptions("spatial", {"--scenario", "cloud",
                                               "--engine", "genetic",
                                               "--max-shapes", "3"});
    EXPECT_EQ(cloud.scenario, accel::Scenario::Cloud);
    EXPECT_EQ(cloud.engine, mapping::EngineKind::Genetic);
    EXPECT_EQ(cloud.maxShapesPerNetwork, 3u);

    EXPECT_THROW(specOptions("spatial", {"--scenario", "mars"}),
                 BackendError);
    EXPECT_THROW(specOptions("spatial", {"--engine", "quantum"}),
                 BackendError);
}

TEST(BackendOptionsParse, SpatialRejectsForeignAreaBudget)
{
    try {
        specOptions("spatial", {"--area-budget", "100"});
        FAIL() << "expected BackendError";
    } catch (const BackendError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--area-budget"), std::string::npos) << msg;
        EXPECT_NE(msg.find("spatial"), std::string::npos) << msg;
    }
}

TEST(BackendOptionsParse, AscendDefaultsAndOverrides)
{
    const auto def = specOptions("ascend", {});
    EXPECT_DOUBLE_EQ(def.areaBudgetMm2, 200.0);

    const auto tight = specOptions("ascend", {"--area-budget", "96.5"});
    EXPECT_DOUBLE_EQ(tight.areaBudgetMm2, 96.5);

    EXPECT_THROW(specOptions("ascend", {"--area-budget", "0"}),
                 BackendError);
    EXPECT_THROW(specOptions("ascend", {"--area-budget", "-3"}),
                 BackendError);
    EXPECT_THROW(specOptions("ascend", {"--max-shapes", "0"}),
                 BackendError);
}

TEST(BackendOptionsParse, AscendRejectsForeignSpatialFlags)
{
    EXPECT_THROW(specOptions("ascend", {"--scenario", "edge"}),
                 BackendError);
    EXPECT_THROW(specOptions("ascend", {"--engine", "random"}),
                 BackendError);
}

TEST(BackendOptionsParse, UnknownBackendThrows)
{
    EXPECT_THROW(specOptions("npu9000", {}), BackendError);
}
