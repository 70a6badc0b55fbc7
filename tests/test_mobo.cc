/**
 * @file
 * Tests for the batched MOBO hardware sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "accel/design_space.hh"
#include "common/crc64.hh"
#include "core/mobo.hh"

using namespace unico;
using core::MoboHwSampler;

namespace {

accel::DesignSpace
makeSpace()
{
    accel::DesignSpace ds;
    ds.addAxis("a", {0, 1, 2, 3, 4, 5, 6, 7});
    ds.addAxis("b", {0, 1, 2, 3});
    ds.addAxis("c", {0, 1});
    return ds;
}

/** Smooth synthetic objectives over the normalized design vector. */
moo::Objectives
syntheticY(const accel::DesignSpace &ds, const accel::HwPoint &h)
{
    const auto x = ds.normalize(h);
    const double lat = 1.0 + 3.0 * (1.0 - x[0]) + x[1];
    const double pow = 1.0 + 2.0 * x[0] + x[2];
    const double area = 0.5 + x[0] + 0.5 * x[1];
    return {lat, pow, area};
}

} // namespace

TEST(Mobo, ColdStartSamplesRandomValidPoints)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 1);
    const auto batch = sampler.sampleBatch(8);
    ASSERT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
}

TEST(Mobo, BatchIsDeduplicated)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 2);
    const auto batch = sampler.sampleBatch(12);
    std::set<std::string> keys;
    for (const auto &h : batch)
        keys.insert(ds.key(h));
    // The space has 64 points; 12 proposals should be mostly unique.
    EXPECT_GE(keys.size(), 10u);
}

TEST(Mobo, ObserveUpdatesNormalizationBounds)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 3);
    sampler.observe({0, 0, 0}, {1.0, 10.0, 100.0}, true);
    sampler.observe({1, 1, 1}, {3.0, 30.0, 300.0}, true);
    const auto mid = sampler.normalize({2.0, 20.0, 200.0});
    EXPECT_DOUBLE_EQ(mid[0], 0.5);
    EXPECT_DOUBLE_EQ(mid[1], 0.5);
    EXPECT_DOUBLE_EQ(mid[2], 0.5);
    EXPECT_EQ(sampler.observations(), 2u);
}

TEST(Mobo, HighFidelityFlagToggles)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 4);
    sampler.observe({0, 0, 0}, {1, 1, 1}, false);
    EXPECT_EQ(sampler.highFidelityCount(), 0u);
    sampler.setHighFidelity(0, true);
    EXPECT_EQ(sampler.highFidelityCount(), 1u);
}

TEST(Mobo, GuidedSamplingConcentratesOnGoodRegion)
{
    // The synthetic objective strongly favors large x[0] for latency;
    // after observing the space, guided batches should prefer high
    // indices on axis 0 more than uniform sampling would.
    const auto ds = makeSpace();
    common::Rng rng(5);
    MoboHwSampler sampler(ds, 3, 5);
    for (int i = 0; i < 40; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, syntheticY(ds, h), true);
    }
    const auto batch = sampler.sampleBatch(16);
    double mean_axis0 = 0.0;
    for (const auto &h : batch)
        mean_axis0 += static_cast<double>(h[0]);
    mean_axis0 /= static_cast<double>(batch.size());
    // Uniform would average 3.5; EI-guided proposals (with ParEGO
    // weight diversity) should lean toward the top half on average.
    EXPECT_GT(mean_axis0, 3.0);
}

TEST(Mobo, SampleBatchAvoidsSeenPoints)
{
    accel::DesignSpace ds;
    ds.addAxis("a", {0, 1, 2, 3});
    MoboHwSampler sampler(ds, 3, 6);
    // Observe with high fidelity so the guided path engages once
    // enough data exists; with <4 points it stays random but still
    // retries against duplicates within the batch.
    sampler.observe({0}, {1, 1, 1}, true);
    sampler.observe({1}, {2, 2, 2}, true);
    const auto batch = sampler.sampleBatch(2);
    EXPECT_EQ(batch.size(), 2u);
}

TEST(Mobo, OverheadAccumulates)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 7);
    EXPECT_DOUBLE_EQ(sampler.overheadSeconds(), 0.0);
    sampler.sampleBatch(4);
    EXPECT_GE(sampler.overheadSeconds(), 0.0);
}

TEST(Mobo, FullRandomFractionBypassesModel)
{
    const auto ds = makeSpace();
    core::MoboConfig cfg;
    cfg.randomFraction = 1.0;
    MoboHwSampler sampler(ds, 3, 8, cfg);
    // Even with plenty of high-fidelity data, sampling stays uniform
    // (and therefore cannot crash on the GP path).
    common::Rng rng(8);
    for (int i = 0; i < 30; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, syntheticY(ds, h), true);
    }
    const auto batch = sampler.sampleBatch(16);
    EXPECT_EQ(batch.size(), 16u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
}

TEST(Mobo, ArdSamplerProposesValidPoints)
{
    const auto ds = makeSpace();
    core::MoboConfig cfg;
    cfg.useArd = true;
    MoboHwSampler sampler(ds, 3, 9, cfg);
    common::Rng rng(9);
    for (int i = 0; i < 24; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, syntheticY(ds, h), true);
    }
    const auto batch = sampler.sampleBatch(8);
    EXPECT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
}

TEST(Mobo, GpFitFailureDegradesToSpaceFilling)
{
    // Finite objectives whose range overflows a double (nadir − ideal
    // = ∞) normalize to ∞/∞ = NaN and poison the ParEGO targets: the
    // fit produces a non-finite posterior, and proposeOne must fall
    // back to random (space-filling) proposals instead of aborting —
    // counted in gpFallbacks() for the driver's fault stats.
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 5);
    const double huge = 1e308;
    const auto seedBatch = sampler.sampleBatch(8);
    for (std::size_t i = 0; i < seedBatch.size(); ++i) {
        if (i < 4)
            sampler.observe(seedBatch[i], syntheticY(ds, seedBatch[i]),
                            true);
        else
            sampler.observe(seedBatch[i],
                            moo::Objectives(3, i == 4 ? -huge : huge),
                            true);
    }

    EXPECT_EQ(sampler.gpFallbacks(), 0u);
    const auto batch = sampler.sampleBatch(8);
    ASSERT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
    // One fallback per proposal slot: all 8 slots see the poisoned
    // targets. Fallbacks land in faults.csv and checkpoints, so the
    // exact count is part of the sampler's contract.
    EXPECT_EQ(sampler.gpFallbacks(), 8u);
    // The failed search must not mark the kernel tuned: that would
    // freeze the default kernel for the rest of the run (and in
    // checkpoints) once the poisoned rows leave the window.
    EXPECT_FALSE(sampler.saveState().at("kernelTuned").asBool());

    // Once they leave the high-fidelity set, the next batch searches
    // again, tunes the kernel and proposes without falling back.
    for (std::size_t i = 4; i < seedBatch.size(); ++i)
        sampler.setHighFidelity(i, false);
    sampler.sampleBatch(8);
    EXPECT_EQ(sampler.gpFallbacks(), 8u);
    EXPECT_TRUE(sampler.saveState().at("kernelTuned").asBool());
}

TEST(Mobo, NanObjectiveRowsStayOutOfTraining)
{
    // A NaN objective would make every ParEGO target of the window
    // NaN. Such a row stays out of the training set and the
    // ideal/nadir bounds, so the surrogate keeps guiding every slot:
    // no fallback, the kernel is tuned once, and the sampler proposes
    // exactly what a twin proposes that saw the same row as low
    // fidelity (which never trains the surrogate either).
    const auto ds = makeSpace();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto prepare = [&](MoboHwSampler &sampler, bool nan_hf) {
        common::Rng rng(61);
        for (int i = 0; i < 24; ++i) {
            const auto h = ds.randomPoint(rng);
            sampler.observe(h, syntheticY(ds, h), true);
        }
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, {nan, 1.0, 1.0}, nan_hf);
    };
    MoboHwSampler sampler(ds, 3, 61);
    MoboHwSampler twin(ds, 3, 61);
    prepare(sampler, true);
    prepare(twin, false);

    const auto batch = sampler.sampleBatch(8);
    ASSERT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
    EXPECT_EQ(sampler.gpFallbacks(), 0u);
    EXPECT_TRUE(sampler.saveState().at("kernelTuned").asBool());
    EXPECT_EQ(twin.sampleBatch(8), batch);
    EXPECT_EQ(twin.gpFallbacks(), 0u);

    // A NaN first observation does not pin the ideal/nadir bounds to
    // NaN for the rest of the run.
    MoboHwSampler first(ds, 3, 62);
    common::Rng rng(62);
    first.observe(ds.randomPoint(rng), {nan, nan, nan}, true);
    for (int i = 0; i < 24; ++i) {
        const auto h = ds.randomPoint(rng);
        first.observe(h, syntheticY(ds, h), true);
    }
    for (double v : first.normalize(syntheticY(ds, ds.randomPoint(rng))))
        EXPECT_TRUE(std::isfinite(v));
    first.sampleBatch(8);
    EXPECT_EQ(first.gpFallbacks(), 0u);
}

TEST(Mobo, HealthyFitDoesNotCountFallbacks)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 6);
    const auto seedBatch = sampler.sampleBatch(8);
    for (const auto &h : seedBatch)
        sampler.observe(h, syntheticY(ds, h), true);
    sampler.sampleBatch(8);
    EXPECT_EQ(sampler.gpFallbacks(), 0u);
}

namespace {

/** A 7680-point space: large enough that > 256 distinct high-fidelity
 *  observations leave most of it unseen. */
accel::DesignSpace
makeLargeSpace()
{
    accel::DesignSpace ds;
    ds.addAxis("a", {0, 1, 2, 3, 4, 5, 6, 7});
    ds.addAxis("b", {0, 1, 2, 3, 4, 5, 6, 7});
    ds.addAxis("c", {0, 1, 2, 3, 4, 5});
    ds.addAxis("d", {0, 1, 2, 3, 4});
    ds.addAxis("e", {0, 1, 2, 3});
    return ds;
}

moo::Objectives
largeSyntheticY(const accel::DesignSpace &ds, const accel::HwPoint &h)
{
    const auto x = ds.normalize(h);
    const double lat = 1.0 + 3.0 * (1.0 - x[0]) + x[1] * x[3] +
                       0.5 * std::sin(6.0 * x[2]);
    const double pow = 1.0 + 2.0 * x[0] + x[2] + 0.3 * x[4];
    const double area = 0.5 + x[0] + 0.5 * x[1] + 0.2 * x[3] * x[4];
    return {lat, pow, area};
}

/**
 * CRC-64 over three batches of 20 proposals from a sampler holding 300
 * high-fidelity observations, so every proposal fits the GP at the
 * 256-point cap and the window slides between batches.
 */
std::uint64_t
proposalsDigestAtCap(bool use_ard)
{
    const auto ds = makeLargeSpace();
    core::MoboConfig cfg;
    cfg.useArd = use_ard;
    cfg.gpThreads = 1;
    MoboHwSampler sampler(ds, 3, 41, cfg);
    common::Rng rng(41);
    for (int i = 0; i < 300; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, largeSyntheticY(ds, h), true);
    }
    std::uint64_t crc = 0;
    for (int b = 0; b < 3; ++b) {
        const auto batch = sampler.sampleBatch(20);
        EXPECT_EQ(batch.size(), 20u);
        for (const auto &h : batch) {
            for (std::size_t axis : h) {
                const std::uint64_t v = axis;
                crc = common::crc64(&v, sizeof v, crc);
            }
            sampler.observe(h, largeSyntheticY(ds, h), true);
        }
    }
    EXPECT_EQ(sampler.gpFallbacks(), 0u);
    return crc;
}

} // namespace

TEST(Mobo, ProposalsAtGpCapArePinned)
{
    // Digests of the proposal stream before the surrogate was factored
    // once per batch; the per-batch factor and the blocked pool solve
    // are the same arithmetic, so the proposals must not move.
    EXPECT_EQ(proposalsDigestAtCap(false), 0xd04df63365108a8fULL);
    EXPECT_EQ(proposalsDigestAtCap(true), 0x89545d76508a824aULL);
}
