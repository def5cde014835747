/**
 * @file
 * Host-speed calibration: a fixed kernel of the benchmark's own that
 * the timed loop runs every so often, so that timings can be put on
 * the speed of a reference host.
 *
 * The host this benchmark runs on is shared, and its speed drifts over
 * minutes by far more than the effects worth measuring. The kernel is
 * a small discrete-event loop, like the simulator: a binary-heap event
 * queue, a hashed state table and a pointer chase, all held in the
 * core's private cache. It shares no code with the program and
 * allocates nothing after its first run, so no change to the program
 * changes its cost; only the host's speed does.
 *
 * A run reports every end-to-end timing scaled by
 * kReferenceCalibrationMs / (the kernel's median time around when it
 * was taken): what the timing would be on a host that runs the kernel
 * in the reference time. Scaling each sample by the host's speed at
 * its own time, not by one factor for the run, keeps a slow phase of
 * a few seconds from lifting the run's tail. The raw timings are
 * printed beside the result.
 */

#ifndef HOSTBENCH_CALIBRATION_HH
#define HOSTBENCH_CALIBRATION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hostbench
{

/**
 * Kernel time that defines the reference host, in ms: about what the
 * kernel takes in a quiet phase of the 4-vCPU Xeon VM (Sapphire Rapids)
 * the bounds were set on.
 */
constexpr double kReferenceCalibrationMs = 7.0;

/** Loop time between two kernel runs in a timed loop, in seconds. */
constexpr double kCalibrationPeriodS = 0.25;

/** Span of loop time over which kernel runs are pooled into the
 *  host's speed at one moment, in seconds. */
constexpr double kCalibrationWindowS = 1.0;

/** Events the kernel processes; fixes its work. */
constexpr std::uint32_t kCalibrationEvents = 70000;

/**
 * Run the kernel once over `events` events and return a checksum of
 * its final state, which depends on `events` only. Not reentrant: its
 * buffers (about 0.65 MiB) are static, allocated by the first call.
 */
std::uint64_t calibrationKernel(std::uint32_t events);

/** The checksum calibrationKernel(kCalibrationEvents) returns. */
constexpr std::uint64_t kCalibrationChecksum = 1679045799;

/**
 * Time one run of the kernel over kCalibrationEvents, in ms.
 * @throws std::runtime_error when its checksum is wrong.
 */
double timeCalibrationKernel();

/** The kernel runs of one run, each at the time it was taken. */
class HostSpeed
{
  public:
    /** Record a kernel run of `kernel_ms` taken at `at_s` seconds into
     *  the run; `at_s` must not decrease from call to call. */
    void add(double at_s, double kernel_ms);

    std::size_t count() const { return ms_.size(); }

    /** Median kernel time over the whole run, in ms. */
    double medianMs() const;

    /**
     * The factor that puts a time taken over [from_s, to_s] on the
     * reference host: kReferenceCalibrationMs / the median kernel
     * time of the runs taken within kCalibrationWindowS / 2 of the
     * interval, or of the run nearest to it when none is that close.
     * @throws std::runtime_error when no kernel run was recorded.
     */
    double scaleOver(double from_s, double to_s) const;

  private:
    std::vector<double> atS_;
    std::vector<double> ms_;
};

} // namespace hostbench

#endif // HOSTBENCH_CALIBRATION_HH
