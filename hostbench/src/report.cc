#include "report.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace hostbench
{

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0 || p >= 100.0)
        return 0;
    // The lower interpolation point, computed exactly as SampleStats
    // computes it so that the two cannot disagree on rounding.
    const double rank = std::max(0.0, p / 100.0 * static_cast<double>(n - 1));
    return n - 1 - static_cast<std::size_t>(rank);
}

std::size_t
samplesNeededFor(double p)
{
    std::size_t n = 1;
    while (samplesBeyond(n, p) < kMinTailSamples)
        ++n;
    return n;
}

double
highestTailPercentile(std::size_t n)
{
    static constexpr std::array<double, 3> kLadder = {99.9, 99.0, 90.0};
    for (double p : kLadder) {
        if (samplesBeyond(n, p) >= kMinTailSamples)
            return p;
    }
    return 0.0;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::array<char, 64> buf{};
    const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    return std::string(buf.data(), res.ptr);
}

std::string
resultLine(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!validMetricName(m.name))
            throw std::invalid_argument("bad metric name: " + m.name);
        if (i > 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " +
               formatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace hostbench
