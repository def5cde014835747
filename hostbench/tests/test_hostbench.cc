/**
 * @file
 * The benchmark's own tests: percentile selection, metric naming,
 * host-speed calibration, seed plumbing, output checks and failure
 * accounting, and span self time. Run with `python3 hostbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hh"
#include "metrics.hh"
#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace hostbench
{
namespace
{

const Setup &
sharedSetup()
{
    static const Setup setup = buildSetup();
    return setup;
}

TEST(Percentile, SamplesBeyondMatchesSampleStats)
{
    for (std::size_t n : {1u, 2u, 10u, 91u, 92u, 100u, 901u, 902u, 9002u}) {
        flep::SampleStats s;
        for (std::size_t i = n; i >= 1; --i)
            s.add(static_cast<double>(i));
        for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
            const double v = s.percentile(p);
            const auto beyond = static_cast<std::size_t>(std::count_if(
                s.samples().begin(), s.samples().end(),
                [v](double x) { return x > v; }));
            EXPECT_EQ(samplesBeyond(n, p), beyond) << n << " p" << p;
        }
    }
}

TEST(Percentile, TailKeepsTenSamplesBeyondIt)
{
    EXPECT_EQ(samplesBeyond(92, 90), 10u);
    EXPECT_EQ(samplesBeyond(91, 90), 9u);
    EXPECT_EQ(samplesNeededFor(90), 92u);
    EXPECT_EQ(samplesNeededFor(99), 902u);
    EXPECT_EQ(samplesNeededFor(99.9), 9002u);

    EXPECT_EQ(highestTailPercentile(91), 0.0);
    EXPECT_EQ(highestTailPercentile(92), 90.0);
    EXPECT_EQ(highestTailPercentile(901), 90.0);
    EXPECT_EQ(highestTailPercentile(902), 99.0);
    EXPECT_EQ(highestTailPercentile(9002), 99.9);
}

TEST(ResultLine, ReportsCountsAndMetricsWithUnits)
{
    const std::string line =
        resultLine(true, 120, 0, {{"op_p50_ms", 1.25, "ms"},
                                  {"setup_s", 0.5, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 120, \"failed\": 0, "
              "\"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": "
              "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
    EXPECT_NE(resultLine(false, 3, 1, {}).find("\"failed\": 1"),
              std::string::npos);
}

TEST(ResultLine, KeepsEveryDigit)
{
    EXPECT_EQ(formatNumber(0.1), "0.1");
    EXPECT_EQ(std::stod(formatNumber(1.0 / 3.0)), 1.0 / 3.0);
    EXPECT_EQ(formatNumber(1.0 / 0.0), "0");
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(validMetricName("op_p50_ms"));
    EXPECT_TRUE(validMetricName("gpu.macro.hit_rate"));
    EXPECT_TRUE(validMetricName("9-lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("p99/ms"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_THROW(resultLine(true, 1, 0, {{"bad name", 1.0, "ms"}}),
                 std::invalid_argument);
}

/** Names listed under `section` of the benchmark manifest. */
std::set<std::string>
manifestNames(const std::string &section)
{
    std::ifstream in(HOSTBENCH_MANIFEST);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto from = text.find("\"" + section + "\"");
    EXPECT_NE(from, std::string::npos) << section;
    const auto to = text.find(']', from);
    const std::string body = text.substr(from, to - from);
    std::set<std::string> names;
    const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
         it != end; ++it)
        names.insert((*it)[1]);
    return names;
}

void
expectValidAndDeclared(const std::vector<Metric> &metrics,
                       const std::string &section)
{
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> emitted;
    for (const Metric &m : metrics) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.unit;
        EXPECT_TRUE(emitted.insert(m.name).second) << "dup " << m.name;
    }
    EXPECT_EQ(emitted, manifestNames(section));
}

TEST(MetricNames, EmittedNamesMatchTheManifest)
{
    EndToEndSample e2e;
    e2e.setupS.push_back({0.0, 1.0, 1.0});
    e2e.opMs.push_back({1.5, 1.5, 2.0});
    e2e.speed.add(1.0, kReferenceCalibrationMs);
    expectValidAndDeclared(endToEndMetrics(e2e), "end_to_end");

    SpanRecorder spans(true);
    expectValidAndDeclared(perLayerMetrics(spans, TracedSample{}),
                           "per_layer");
}

TEST(Calibration, KernelDoesFixedWork)
{
    EXPECT_EQ(calibrationKernel(kCalibrationEvents), kCalibrationChecksum);
    EXPECT_NE(calibrationKernel(kCalibrationEvents - 1),
              kCalibrationChecksum);
    EXPECT_GT(timeCalibrationKernel(), 0.0);
}

TEST(Calibration, ScaleFollowsTheLocalSpeed)
{
    // Reference speed for 10 s, then half speed for 10 s.
    HostSpeed speed;
    EXPECT_THROW(speed.scaleOver(0.0, 0.0), std::runtime_error);
    for (int k = 0; k < 80; ++k)
        speed.add(0.25 * k, (k < 40 ? 1.0 : 2.0) * kReferenceCalibrationMs);
    EXPECT_THROW(speed.add(1.0, 1.0), std::logic_error);
    EXPECT_DOUBLE_EQ(speed.medianMs(), 1.5 * kReferenceCalibrationMs);
    EXPECT_DOUBLE_EQ(speed.scaleOver(4.0, 4.0), 1.0);
    EXPECT_DOUBLE_EQ(speed.scaleOver(15.0, 15.0), 0.5);
    // An interval pools every run within the window of it: here two
    // at reference speed and seven at half speed.
    EXPECT_DOUBLE_EQ(speed.scaleOver(10.0, 11.0), 0.5);
    // Past the last run, the nearest run decides.
    EXPECT_DOUBLE_EQ(speed.scaleOver(60.0, 61.0), 0.5);
    EXPECT_DOUBLE_EQ(speed.scaleOver(-61.0, -60.0), 1.0);
}

TEST(Calibration, MetricsCancelASlowPhase)
{
    // Ops of 10, 20, ..., 100 ms at reference speed; the run repeats
    // them in a second phase where the host, and so the kernel, runs
    // at a third of the speed.
    EndToEndSample slow;
    EndToEndSample steady;
    for (int phase = 0; phase < 2; ++phase) {
        const double f = phase == 0 ? 1.0 : 3.0;
        for (int k = 0; k < 100; ++k) {
            const double at = 100.0 * phase + k;
            const double ms = 10.0 * (1 + k % 10);
            slow.opMs.push_back({at, at, f * ms});
            steady.opMs.push_back({at, at, ms});
            slow.speed.add(at, f * kReferenceCalibrationMs);
            steady.speed.add(at, kReferenceCalibrationMs);
        }
        slow.setupS.push_back({100.0 * phase, 100.0 * phase, f});
        steady.setupS.push_back({100.0 * phase, 100.0 * phase, 1.0});
    }
    slow.simSeconds = steady.simSeconds = 2.0;
    steady.loopSeconds = 11.0; // 200 ops of 55 ms on average
    slow.loopSeconds = 22.0;   // 5.5 s, then 16.5 s
    const auto a = endToEndMetrics(slow);
    const auto b = endToEndMetrics(steady);
    const auto raw = endToEndMetrics(slow, false);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_NEAR(a[k].value, b[k].value, 1e-9 * b[k].value)
            << a[k].name;
        if (a[k].name != "peak_rss_mb")
            EXPECT_NE(raw[k].value, b[k].value) << a[k].name;
    }
    EXPECT_DOUBLE_EQ(b[1].value, 55.0); // op_p50_ms
}

TEST(SeedPlumbing, SameSeedSameDigestOtherSeedDiffers)
{
    for (WorkloadKind kind : allWorkloads()) {
        OpTally tally;
        const auto a = prefixDigest(kind, sharedSetup(), 7, 2, tally);
        const auto b = prefixDigest(kind, sharedSetup(), 7, 2, tally);
        const auto c = prefixDigest(kind, sharedSetup(), 8, 2, tally);
        EXPECT_EQ(a, b) << workloadName(kind);
        EXPECT_NE(a, c) << workloadName(kind);
        EXPECT_EQ(tally.attempted, 6);
        EXPECT_EQ(tally.failed, 0) << workloadName(kind);
    }
}

TEST(SeedPlumbing, TracingLeavesResultsUnchanged)
{
    SpanRecorder off(false);
    for (WorkloadKind kind : allWorkloads()) {
        const OpResult plain = runOp(kind, sharedSetup(), 3, 1, off, false);
        const OpResult traced = runOp(kind, sharedSetup(), 3, 1, off, true);
        EXPECT_TRUE(plain.ok()) << plain.failure;
        EXPECT_EQ(plain.digest, traced.digest) << workloadName(kind);
        EXPECT_FALSE(traced.traces.empty());
        EXPECT_GT(plain.simSeconds, 0.0);
    }
}

TEST(OutputChecks, FailedCheckCountsAsFailedOp)
{
    OpTally tally;
    OpResult good;
    OpResult bad;
    bad.failure = checkCoRun(flep::CoRunResult{}, 2);
    ASSERT_FALSE(bad.ok());
    tally.record(good, 0);
    tally.record(bad, 1);
    tally.record(good, 2);
    EXPECT_EQ(tally.attempted, 3);
    EXPECT_EQ(tally.failed, 1);
}

TEST(OutputChecks, CoRunMustCompleteEveryInvocation)
{
    flep::CoRunResult res;
    res.invocations.resize(2);
    res.invocations[0].process = 0;
    res.invocations[1].process = 1;
    EXPECT_EQ(checkCoRun(res, 2), "");
    res.invocations[1].process = 0;
    EXPECT_NE(checkCoRun(res, 2), "");
    res.invocations.pop_back();
    EXPECT_NE(checkCoRun(res, 2), "");
}

TEST(OutputChecks, FaultFreeClusterCompletesEveryJobWithoutLoss)
{
    flep::ClusterConfig cfg;
    cfg.jobs.resize(2);
    cfg.jobs[1].id = 1;
    flep::ClusterResult res;
    res.outcomes.resize(2);
    for (int i = 0; i < 2; ++i) {
        res.outcomes[static_cast<std::size_t>(i)].job = cfg.jobs[static_cast<std::size_t>(i)];
        res.outcomes[static_cast<std::size_t>(i)].completed = true;
        res.outcomes[static_cast<std::size_t>(i)].execNs = 1000;
    }
    EXPECT_EQ(checkCluster(cfg, res), "");

    flep::ClusterResult unfinished = res;
    unfinished.outcomes[1].completed = false;
    EXPECT_NE(checkCluster(cfg, unfinished), "");
    unfinished.outcomes[1].failedPermanently = true;
    EXPECT_NE(checkCluster(cfg, unfinished), "");

    flep::ClusterResult missing = res;
    missing.outcomes.pop_back();
    EXPECT_NE(checkCluster(cfg, missing), "");

    // Any lost work fails the check, summed consistently or not: its
    // goodput would fall below the fault-free value of exactly 1.
    flep::ClusterResult lost = res;
    lost.outcomes[0].lostWorkNs = 500;
    EXPECT_NE(checkCluster(cfg, lost), "");
    lost.lostWorkNs = 500;
    EXPECT_NE(checkCluster(cfg, lost), "");
    lost.outcomes[0].lostWorkNs = 0;
    EXPECT_NE(checkCluster(cfg, lost), "");
}

TEST(Spans, SelfTimeExcludesChildren)
{
    SpanRecorder rec(true);
    {
        SpanRecorder::Scope outer(rec, "outer");
        SpanRecorder::Scope inner(rec, "inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    const auto totals = rec.totalsByName();
    EXPECT_EQ(totals.at("outer").selfNs,
              rec.spans()[0].durationNs() - rec.spans()[1].durationNs());
    EXPECT_EQ(totals.at("inner").selfNs, rec.spans()[1].durationNs());
    EXPECT_GE(totals.at("inner").totalNs, 2'000'000);
}

TEST(Spans, DisabledRecorderRecordsNothing)
{
    SpanRecorder rec(false);
    {
        SpanRecorder::Scope s(rec, "x");
    }
    EXPECT_TRUE(rec.spans().empty());
}

TEST(Spans, OutOfOrderEndThrows)
{
    SpanRecorder rec(true);
    const int a = rec.begin("a");
    rec.begin("b");
    EXPECT_THROW(rec.end(a), std::logic_error);
}

} // namespace
} // namespace hostbench
