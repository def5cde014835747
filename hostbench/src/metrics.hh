/**
 * @file
 * The metrics the benchmark reports, built from what a run measured.
 *
 * End-to-end metrics (--trace 0) are host-side only: set-up time, op
 * latency, simulated seconds per host second and peak memory. No
 * simulated outcome is ever reported as a metric.
 *
 * Per-layer metrics (--trace 1) come from spans the benchmark records
 * around its calls into each layer and from the program's public
 * counters. Names are per op unless they say otherwise; a layer the
 * workload never calls reports 0.
 */

#ifndef HOSTBENCH_METRICS_HH
#define HOSTBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calibration.hh"
#include "common/stats.hh"
#include "obs/trace_recorder.hh"
#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace hostbench
{

/** Op latency tail the end-to-end run reports. */
constexpr double kTailPercentile = 90.0;

/** One measured time and the interval it was taken over, in seconds
 *  since the run began. */
struct TimedValue
{
    double fromS = 0.0;
    double toS = 0.0;
    double value = 0.0;
};

/** What an end-to-end run measured, in this host's time. */
struct EndToEndSample
{
    std::vector<TimedValue> setupS; //!< one per set-up, in s
    std::vector<TimedValue> opMs;   //!< one per timed op, in ms
    HostSpeed speed;          //!< calibration runs over the timed loop
    double simSeconds = 0.0;  //!< simulated time over the timed ops
    double loopSeconds = 0.0; //!< host time of the timed loop
    /** Peak resident memory above the process's at main() entry. */
    double peakRssMiB = 0.0;
};

/**
 * The end-to-end metrics. When `calibrated`, every set-up and op time
 * is first put on the reference host with the host's speed when it
 * was taken (HostSpeed::scaleOver), and the loop's host time as its ops
 * were; otherwise the timings are this host's.
 */
std::vector<Metric> endToEndMetrics(const EndToEndSample &s,
                                    bool calibrated = true);

/** Trace events per layer, by the recorder's track groups. */
struct TraceTally
{
    std::uint64_t total = 0;
    std::map<std::string, std::uint64_t> byLayer = {
        {"gpu", 0}, {"runtime", 0}, {"cluster", 0}, {"host", 0}};

    void add(const flep::TraceRecorder &rec);
};

/** What the traced run measured. */
struct TracedSample
{
    std::size_t ops = 0; //!< untraced ops with spans (= traced ops)
    LayerCounts counts;  //!< summed over the untraced ops
    TraceTally traces;   //!< summed over the traced ops
    double untracedNs = 0.0;
    double tracedNs = 0.0;
};

std::vector<Metric> perLayerMetrics(const SpanRecorder &spans,
                                    const TracedSample &s);

} // namespace hostbench

#endif // HOSTBENCH_METRICS_HH
