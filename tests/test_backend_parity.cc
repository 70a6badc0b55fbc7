/**
 * @file
 * Byte-identity parity test for the layered-run refactor.
 *
 * The golden CSVs under tests/golden/ were produced by the seed
 * build, *before* SpatialEnv/AscendEnv were rebased onto the shared
 * LayeredMappingRun core and the backend registry. This test rebuilds
 * the exact same configurations through the registry and requires the
 * records/front/trace CSVs to match the goldens byte for byte: the
 * refactor must not perturb a single evaluation, charge or seed draw.
 *
 * If a deliberate trajectory change ever lands (new seeding scheme,
 * different charging rule), regenerate the goldens in the same commit
 * and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/thread_pool.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/report.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

core::DriverConfig
parityConfig(int batch, int iters, int bmax)
{
    auto cfg = core::DriverConfig::unico();
    cfg.batchSize = batch;
    cfg.maxIter = iters;
    cfg.sh.bMax = bmax;
    cfg.seed = 33;
    cfg.realThreads = 1;
    return cfg;
}

/** Run one backend at the golden configuration and byte-compare the
 *  three CSV reports against the seed-build goldens. With a non-null
 *  @p evalPool, cold evaluations of batchable search phases fan out
 *  across the pool — the batch contract says the trajectory (and so
 *  every CSV) must still match the serial goldens byte for byte. */
void
checkParity(const std::string &backend, const std::string &network,
            const core::DriverConfig &cfg,
            common::ThreadPool *evalPool = nullptr)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.evalPool = evalPool;
    const auto env = core::makeBackendEnv(
        backend, {workload::makeNetwork(network)}, opt);
    ASSERT_EQ(env->backendName(), backend);

    core::CoOptimizer driver(*env, cfg);
    const auto result = driver.run();

    const std::string out_prefix =
        ::testing::TempDir() + "parity_" + backend;
    ASSERT_TRUE(
        core::writeRecordsCsv(result, *env, out_prefix + "_records.csv"));
    ASSERT_TRUE(
        core::writeFrontCsv(result, *env, out_prefix + "_front.csv"));
    ASSERT_TRUE(core::writeTraceCsv(result, out_prefix + "_trace.csv"));

    const std::string golden_prefix =
        std::string(UNICO_GOLDEN_DIR) + "/" + backend;
    for (const char *kind : {"_records.csv", "_front.csv", "_trace.csv"}) {
        const std::string got = readAll(out_prefix + kind);
        const std::string want = readAll(golden_prefix + kind);
        ASSERT_FALSE(want.empty()) << "empty golden " << kind;
        EXPECT_EQ(got, want)
            << backend << kind
            << " diverged from the seed-build golden: the layered-run "
               "refactor changed the search trajectory";
        std::remove((out_prefix + kind).c_str());
    }
}

} // namespace

TEST(BackendParity, SpatialMatchesSeedBuildByteForByte)
{
    checkParity("spatial", "mobilenet", parityConfig(6, 2, 24));
}

TEST(BackendParity, AscendMatchesSeedBuildByteForByte)
{
    checkParity("ascend", "fsrcnn_120x320", parityConfig(4, 2, 12));
}

TEST(BackendParity, SpatialBatchedEvaluationMatchesSerialGoldens)
{
    common::ThreadPool pool(4);
    checkParity("spatial", "mobilenet", parityConfig(6, 2, 24), &pool);
}

TEST(BackendParity, AscendIgnoresEvalPoolAndStaysOnGoldens)
{
    common::ThreadPool pool(4);
    checkParity("ascend", "fsrcnn_120x320", parityConfig(4, 2, 12),
                &pool);
}
