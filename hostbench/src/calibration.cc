#include "calibration.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hostbench
{

namespace
{

/** xorshift64: the kernel's own generator, so that its work never
 *  depends on a library's. */
std::uint64_t
next(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
referenceScale(double calibration_median_ms)
{
    if (!(calibration_median_ms > 0.0))
        throw std::runtime_error("no calibration time");
    return kReferenceCalibrationMs / calibration_median_ms;
}

} // namespace

std::uint64_t
calibrationKernel(std::uint32_t events)
{
    constexpr std::uint32_t kActors = 1024;
    constexpr std::uint32_t kStateMask = (1u << 16) - 1; // 512 KiB
    constexpr std::uint32_t kChainSize = 1u << 15;       // 128 KiB
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    const std::greater<Event> later;

    // Allocated once and reused, so that the kernel's cost does not
    // depend on the state of the heap the program leaves behind.
    struct Buffers
    {
        std::vector<Event> queue;
        std::vector<std::uint64_t> state;
        std::vector<std::uint32_t> chain; //!< one random cycle
    };
    static Buffers b = []() {
        Buffers init;
        init.queue.reserve(kActors);
        init.state.resize(kStateMask + 1);
        init.chain.resize(kChainSize);
        for (std::uint32_t k = 0; k < kChainSize; ++k)
            init.chain[k] = k;
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        for (std::uint32_t k = kChainSize - 1; k > 0; --k) // Sattolo
            std::swap(init.chain[k], init.chain[next(x) % k]);
        return init;
    }();

    // Streaming over every buffer first brings them into the cache,
    // whatever the op before evicted.
    std::uint64_t sum = 0;
    std::fill(b.state.begin(), b.state.end(), 0);
    for (std::uint32_t c : b.chain)
        sum += c;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    b.queue.clear();
    for (std::uint32_t a = 0; a < kActors; ++a)
        b.queue.push_back({next(rng) % 1000, a});
    std::make_heap(b.queue.begin(), b.queue.end(), later);

    std::uint32_t at = 0;
    for (std::uint32_t n = 0; n < events; ++n) {
        std::pop_heap(b.queue.begin(), b.queue.end(), later);
        Event &ev = b.queue.back();
        std::uint64_t &slot =
            b.state[(ev.second * 2654435761u + n) & kStateMask];
        slot += ev.first;
        sum ^= slot;
        for (int hop = 0; hop < 4; ++hop)
            at = b.chain[at];
        sum += at;
        ev.first += 1 + next(rng) % 1000;
        std::push_heap(b.queue.begin(), b.queue.end(), later);
    }
    return sum;
}

double
timeCalibrationKernel()
{
    const auto t = std::chrono::steady_clock::now();
    const std::uint64_t sum = calibrationKernel(kCalibrationEvents);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t)
                          .count();
    if (sum != kCalibrationChecksum)
        throw std::runtime_error("calibration kernel checksum differs");
    return ms;
}

void
HostSpeed::add(double at_s, double kernel_ms)
{
    if (!atS_.empty() && at_s < atS_.back())
        throw std::logic_error("calibration runs out of time order");
    atS_.push_back(at_s);
    ms_.push_back(kernel_ms);
}

double
HostSpeed::medianMs() const
{
    if (ms_.empty())
        throw std::runtime_error("no calibration run");
    return median(ms_);
}

double
HostSpeed::scaleOver(double from_s, double to_s) const
{
    if (ms_.empty())
        throw std::runtime_error("no calibration run");
    const auto lo = std::lower_bound(atS_.begin(), atS_.end(),
                                     from_s - kCalibrationWindowS / 2);
    const auto hi = std::upper_bound(lo, atS_.end(),
                                     to_s + kCalibrationWindowS / 2);
    if (lo != hi)
        return referenceScale(median({ms_.begin() + (lo - atS_.begin()),
                                      ms_.begin() + (hi - atS_.begin())}));
    // No run in the window: take the nearest one.
    std::size_t k = static_cast<std::size_t>(lo - atS_.begin());
    if (k == atS_.size() ||
        (k > 0 && from_s - atS_[k - 1] < atS_[k] - to_s))
        --k;
    return referenceScale(ms_[k]);
}

} // namespace hostbench
