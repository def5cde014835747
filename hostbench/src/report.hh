/**
 * @file
 * Sample statistics and the benchmark's result line.
 *
 * Timings are reported as a median plus the tail percentile that
 * still has at least ten samples beyond it (both computed with
 * flep::SampleStats); the result line is one
 * JSON object with the keys `correct`, `attempted`, `failed` and
 * `metrics`, each metric carrying its value and unit.
 */

#ifndef HOSTBENCH_REPORT_HH
#define HOSTBENCH_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hostbench
{

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr std::size_t kMinTailSamples = 10;

/**
 * Samples strictly beyond percentile `p` of n distinct samples, as
 * flep::SampleStats::percentile interpolates it: the samples ranked
 * above its lower interpolation point.
 */
std::size_t samplesBeyond(std::size_t n, double p);

/** Fewest samples for which percentile `p` leaves kMinTailSamples
 *  beyond it (100 for p90). */
std::size_t samplesNeededFor(double p);

/**
 * The highest of p90, p99, p99.9 that leaves at least kMinTailSamples
 * samples beyond it, or 0 when even p90 does not.
 */
double highestTailPercentile(std::size_t n);

/** True when `name` is a valid metric name: 1 to 64 characters from
 *  [A-Za-z0-9_.-], starting with a letter or digit. */
bool validMetricName(const std::string &name);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: one JSON object on one line. Values are written
 * with every digit needed to read them back exactly.
 * @pre every metric name is valid (checked; throws otherwise).
 */
std::string resultLine(bool correct, long attempted, long failed,
                       const std::vector<Metric> &metrics);

/** Shortest round-trip decimal text of `v` (JSON has no NaN/inf:
 *  those are written as 0). */
std::string formatNumber(double v);

} // namespace hostbench

#endif // HOSTBENCH_REPORT_HH
