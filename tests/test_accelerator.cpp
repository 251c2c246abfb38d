/**
 * @file
 * Strix accelerator model tests: Table V regression bounds, epoch
 * scheduling, fragmentation behaviour, and trace invariants.
 */

#include <gtest/gtest.h>

#include "strix/accelerator.h"

namespace strix {
namespace {

/** |got/want - 1| <= tol */
::testing::AssertionResult
within(double got, double want, double tol)
{
    double rel = std::abs(got / want - 1.0);
    if (rel <= tol)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "got " << got << ", want " << want << " (rel err " << rel
           << " > " << tol << ")";
}

struct TableVRow
{
    const TfheParams *params;
    double latency_ms;
    double throughput;
};

// Keeps the discovered ctest names free of the params pointer.
void
PrintTo(const TableVRow &row, std::ostream *os)
{
    *os << "Set" << row.params->name;
}

class TableVRegression : public ::testing::TestWithParam<TableVRow>
{
};

TEST_P(TableVRegression, ReproducesPaperNumbers)
{
    StrixAccelerator strix;
    PbsPerf perf = strix.evaluatePbs(*GetParam().params);
    // Throughput must match the paper to 2%; latency to 20% (the
    // paper does not publish its keyswitch decomposition depths, see
    // EXPERIMENTS.md).
    EXPECT_TRUE(within(perf.throughput_pbs_s, GetParam().throughput,
                       0.02))
        << "set " << GetParam().params->name;
    EXPECT_TRUE(within(perf.latency_ms, GetParam().latency_ms, 0.20))
        << "set " << GetParam().params->name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableVRegression,
    ::testing::Values(TableVRow{&paramsSetI(), 0.16, 74696},
                      TableVRow{&paramsSetII(), 0.23, 39600},
                      TableVRow{&paramsSetIII(), 0.44, 21104},
                      TableVRow{&paramsSetIV(), 3.31, 2368}),
    [](const auto &info) {
        return "Set" + info.param.params->name;
    });

TEST(Accelerator, FoldingAblationMatchesTableVI)
{
    // Table VI: folding improves latency 1.68x and throughput 1.99x.
    StrixAccelerator fold{StrixConfig::paperDefault()};
    StrixAccelerator nofold{StrixConfig::paperNoFolding()};
    PbsPerf f = fold.evaluatePbs(paramsSetI());
    PbsPerf nf = nofold.evaluatePbs(paramsSetI());
    EXPECT_TRUE(within(nf.latency_ms / f.latency_ms, 1.68, 0.10));
    EXPECT_TRUE(within(f.throughput_pbs_s / nf.throughput_pbs_s, 1.99,
                       0.05));
}

TEST(Accelerator, ThroughputScalesWithCores)
{
    StrixConfig one = StrixConfig::paperDefault();
    one.tvlp = 1;
    PbsPerf p1 = StrixAccelerator(one).evaluatePbs(paramsSetI());
    PbsPerf p8 = StrixAccelerator().evaluatePbs(paramsSetI());
    EXPECT_TRUE(within(p8.throughput_pbs_s / p1.throughput_pbs_s, 8.0,
                       0.01));
    // Latency is per-core and unchanged.
    EXPECT_DOUBLE_EQ(p1.latency_ms, p8.latency_ms);
}

TEST(Accelerator, BatchFragmentationStaircase)
{
    // Below one epoch batch the time is flat; one LWE beyond it adds
    // a whole second fragment (the generalized Eq. (1)/(2)).
    StrixAccelerator strix;
    const TfheParams &p = paramsSetI();
    PbsPerf perf = strix.evaluatePbs(p);
    uint64_t batch = perf.device_batch;

    BatchPerf half = strix.runBatch(p, batch / 2);
    BatchPerf full = strix.runBatch(p, batch);
    BatchPerf over = strix.runBatch(p, batch + 1);

    EXPECT_EQ(half.epochs, 1u);
    EXPECT_EQ(full.epochs, 1u);
    EXPECT_EQ(over.epochs, 2u);
    EXPECT_GT(over.seconds, full.seconds);
    // Equal-epoch runs differ only via per-core batch rounding.
    EXPECT_NEAR(full.seconds / half.seconds, 2.0, 0.35);
}

TEST(Accelerator, RunBatchMatchesThroughputAtScale)
{
    // For a large number of LWEs, runBatch must converge to the
    // steady-state throughput estimate.
    StrixAccelerator strix;
    const TfheParams &p = paramsSetII();
    PbsPerf perf = strix.evaluatePbs(p);
    const uint64_t lwes = 100000;
    BatchPerf bp = strix.runBatch(p, lwes);
    double tp = double(lwes) / bp.seconds;
    EXPECT_TRUE(within(tp, perf.throughput_pbs_s, 0.05));
}

TEST(Accelerator, EmptyBatchIsFree)
{
    StrixAccelerator strix;
    BatchPerf bp = strix.runBatch(paramsSetI(), 0);
    EXPECT_EQ(bp.seconds, 0.0);
    EXPECT_EQ(bp.epochs, 0u);
}

TEST(Accelerator, GraphLayersAreBarriers)
{
    StrixAccelerator strix;
    WorkloadGraph g("toy");
    g.addLayer({"a", 100, 0});
    g.addLayer({"b", 100, 0});
    WorkloadGraph one("merged");
    one.addLayer({"ab", 200, 0});
    BatchPerf split = strix.runGraph(paramsSetI(), g);
    BatchPerf merged = strix.runGraph(paramsSetI(), one);
    // Two barriers cannot be faster than one.
    EXPECT_GE(split.seconds, merged.seconds * 0.999);
}

TEST(Accelerator, MemoryBoundFlagAtExtremeClp)
{
    // TvLP=1/CLP=32 on set IV is the paper's heavily memory-bound
    // extreme (Table VII's last row).
    StrixConfig cfg = StrixConfig::paperDefault();
    cfg.tvlp = 1;
    cfg.clp = 32;
    PbsPerf perf = StrixAccelerator(cfg).evaluatePbs(paramsSetIV());
    EXPECT_TRUE(perf.memory_bound);
    // And the paper design point is not memory bound.
    PbsPerf base = StrixAccelerator().evaluatePbs(paramsSetIV());
    EXPECT_FALSE(base.memory_bound);
}

TEST(Accelerator, TraceHasNoUnitOverlapAndFullFftUtilization)
{
    StrixAccelerator strix;
    Hsc core = strix.makeCore(paramsSetI());
    GanttTrace trace = core.traceBlindRotation(2, 3);
    for (const auto &row : trace.rows()) {
        if (row.name() == "Loc.Scrtpd")
            continue; // two ports: read + write rows share a lane
        EXPECT_FALSE(row.hasOverlap()) << row.name();
    }

    HscUtilization u = core.utilization(3);
    EXPECT_NEAR(u.fft, 1.0, 0.01);
    EXPECT_NEAR(u.decomposer, 1.0, 0.01);
    EXPECT_NEAR(u.vma, 1.0, 0.01);
    EXPECT_NEAR(u.ifft, 1.0, 0.01);
    EXPECT_NEAR(u.accumulator, 1.0, 0.01);
    EXPECT_NEAR(u.rotator, 0.5, 0.01); // paper: rotator at 50%
    EXPECT_GT(u.hbm, 0.3);
    EXPECT_LT(u.hbm, 1.0);
}

TEST(Accelerator, RequiredBandwidthGrowsWithClp)
{
    // Table VII: the bandwidth requirement roughly doubles with CLP.
    const TfheParams &p = paramsSetIV();
    double prev = 0.0;
    for (uint32_t clp : {2u, 4u, 8u, 16u, 32u}) {
        StrixConfig cfg = StrixConfig::paperDefault();
        cfg.tvlp = 32 / clp;
        cfg.clp = clp;
        PbsPerf perf = StrixAccelerator(cfg).evaluatePbs(p);
        EXPECT_GT(perf.required_bw_gbps, prev) << "clp=" << clp;
        prev = perf.required_bw_gbps;
    }
    EXPECT_GT(prev, 300.0); // the extreme config exceeds one stack
}

} // namespace
} // namespace strix
