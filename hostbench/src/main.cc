/**
 * @file
 * hostbench: host-time benchmark of the FLEP simulator.
 *
 *   hostbench --workload <paper_pairs|fleet|hetero_fleet> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans-out <path>]
 *
 * --trace 0 measures the end-to-end metrics: set-up time (median of
 * several set-ups), op latency median and p90, simulated seconds per
 * host second, and peak resident memory above the process image at
 * main() entry. The timings are put on the reference host's speed
 * with a calibration kernel run throughout the loop (calibration.hh);
 * the raw ones are printed too. Nothing is traced.
 *
 * --trace 1 is the separate traced run: spans around every call into
 * the program, the program's own counters, and each op re-run with a
 * TraceRecorder attached to price trace emission. It prints the
 * per-layer metrics and writes the spans to --spans-out.
 *
 * Both modes first run a fixed prefix of ops, untimed, whose
 * simulated results form the printed digest; every op is checked and
 * a failed check counts against `failed`. The last line of standard
 * output is the JSON result.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
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

using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 5;
/** Op pairs the traced run measures at least. */
constexpr std::size_t kMinTracedPairs = 20;

struct Args
{
    WorkloadKind workload = WorkloadKind::PaperPairs;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "<paper_pairs|fleet|hetero_fleet> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            if (!parseWorkload(val, a.workload))
                usage("unknown workload '" + val + "'");
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0')
                usage("bad seed '" + val + "'");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(a.seconds > 0))
                usage("bad seconds '" + val + "'");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--spans-out") {
            a.spansOut = val;
        } else {
            usage("unknown option " + key);
        }
    }
    return a;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * A resident-memory line of /proc/self/status (`VmRSS`, or the peak
 * `VmHWM`) in MiB. (getrusage's ru_maxrss is no substitute: Linux
 * carries it across execve, so it can report the launching process's
 * footprint instead.)
 */
double
rssMiB(const char *field)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        throw std::runtime_error("cannot read /proc/self/status");
    const std::string format = std::string(field) + ": %ld kB";
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr)
        std::sscanf(line, format.c_str(), &kib);
    std::fclose(f);
    if (kib <= 0)
        throw std::runtime_error(std::string("no ") + field +
                                 " in /proc/self/status");
    return static_cast<double>(kib) / 1024.0;
}

/** Run and print the untimed digest prefix; returns the first op
 *  index of the timed loop. */
std::uint64_t
runDigestPrefix(const Args &args, const Setup &setup, OpTally &tally)
{
    const std::uint64_t n = digestPrefixOps(args.workload);
    const std::uint64_t digest =
        prefixDigest(args.workload, setup, args.seed, n, tally);
    std::printf("digest %s seed %" PRIu64 " ops [0,%" PRIu64
                "): %016" PRIx64 "\n",
                workloadName(args.workload), args.seed, n, digest);
    return n;
}

/** True when a timed loop that has run `samples` ops, the next being
 *  op `next`, may stop: its time (less `excluded_s`) is up, it has
 *  enough samples, and it ends on a pass boundary. */
bool
loopDone(const Args &args, Clock::time_point start, std::uint64_t next,
         std::size_t samples, std::size_t min_samples,
         double excluded_s = 0.0)
{
    return samples >= min_samples &&
           next % cycleLength(args.workload) == 0 &&
           secondsSince(start) - excluded_s >= args.seconds;
}

/** `entry_rss_mib` is the resident memory at main() entry: the
 *  process image and the calibration kernel's buffers, which
 *  peak_rss_mb leaves out. */
int
runEndToEnd(const Args &args, double entry_rss_mib)
{
    EndToEndSample sample;
    const auto run_start = Clock::now();
    // Runs `f` and returns when it ran and how long it took, in s.
    const auto timed = [&run_start](auto &&f) {
        const double from = secondsSince(run_start);
        f();
        const double to = secondsSince(run_start);
        return TimedValue{from, to, to - from};
    };
    const auto calibrate = [&]() {
        double kernel_ms = 0.0;
        const TimedValue t =
            timed([&kernel_ms]() { kernel_ms = timeCalibrationKernel(); });
        sample.speed.add(0.5 * (t.fromS + t.toS), kernel_ms);
        return t.value;
    };
    // A set-up takes about 0.8 s, longer than the kernel's period, so
    // the kernel runs right before and after it to time the host's
    // speed around it. Returns the set-up and the time all three took.
    const auto timedSetup = [&]() {
        double spent_s = calibrate();
        Setup built;
        sample.setupS.push_back(timed([&built]() { built = buildSetup(); }));
        spent_s += sample.setupS.back().value + calibrate();
        return std::make_pair(std::move(built), spent_s);
    };
    const Setup setup = timedSetup().first;

    OpTally tally;
    std::uint64_t i = runDigestPrefix(args, setup, tally);

    // The remaining set-ups are spread evenly over the timed loop, so
    // that their median samples the host's speed across the whole run
    // rather than at its start; so are the calibration-kernel runs.
    // Their time is kept out of the loop's.
    SpanRecorder off(false);
    const std::size_t min_samples = samplesNeededFor(kTailPercentile);
    const auto start = Clock::now();
    double excluded_s = 0.0;
    double next_kernel_s = 0.0;
    for (;;) {
        const double elapsed = secondsSince(start) - excluded_s;
        if (sample.setupS.size() < kSetupReps &&
            elapsed >= args.seconds *
                           static_cast<double>(sample.setupS.size()) /
                           kSetupReps)
            excluded_s += timedSetup().second;
        if (elapsed >= next_kernel_s) {
            excluded_s += calibrate();
            next_kernel_s += kCalibrationPeriodS;
        }
        OpResult op;
        TimedValue t = timed([&]() {
            op = runOp(args.workload, setup, args.seed, i, off, false);
        });
        t.value *= 1e3;
        sample.opMs.push_back(t);
        tally.record(op, i);
        sample.simSeconds += op.simSeconds;
        ++i;
        if (sample.setupS.size() == kSetupReps &&
            loopDone(args, start, i, sample.opMs.size(), min_samples,
                     excluded_s))
            break;
    }
    sample.loopSeconds = secondsSince(start) - excluded_s;
    const double peak_mib = rssMiB("VmHWM");
    sample.peakRssMiB = peak_mib - entry_rss_mib;

    const std::vector<Metric> raw = endToEndMetrics(sample, false);
    std::printf("timed ops: %zu in %.3f s (p%g is the highest "
                "percentile with >=%zu samples beyond it)\n",
                sample.opMs.size(), sample.loopSeconds,
                highestTailPercentile(sample.opMs.size()),
                kMinTailSamples);
    std::printf("resident MiB: %.3f at entry, %.3f peak\n",
                entry_rss_mib, peak_mib);
    std::printf("setup_s samples:");
    for (const TimedValue &v : sample.setupS)
        std::printf(" %.4f", v.value);
    std::printf("\n");
    std::printf("calibration kernel: median %.4f ms over %zu runs "
                "(reference %.1f ms)\nuncalibrated:",
                sample.speed.medianMs(), sample.speed.count(),
                kReferenceCalibrationMs);
    for (const Metric &m : raw)
        std::printf(" %s=%.4f", m.name.c_str(), m.value);
    std::printf("\n");
    std::printf("%s\n", resultLine(tally.failed == 0, tally.attempted,
                                   tally.failed, endToEndMetrics(sample))
                            .c_str());
    return 0;
}

int
runTraced(const Args &args)
{
    SpanRecorder spans(true);
    const Setup setup = buildSetupTraced(spans);
    // The spanned set-up replays runOfflinePhase step by step; its
    // products must be the ones users get.
    const bool setup_ok = artifactsDigest(setup.artifacts) ==
                          artifactsDigest(buildSetup().artifacts);
    if (!setup_ok)
        std::fprintf(stderr, "spanned set-up diverged from "
                             "runOfflinePhase\n");

    OpTally tally;
    std::uint64_t i = runDigestPrefix(args, setup, tally);

    // Each op runs twice: untraced with spans (per-layer times and
    // counters), then with a TraceRecorder attached (trace cost).
    SpanRecorder off(false);
    TracedSample sample;
    const auto start = Clock::now();
    for (;;) {
        auto t = Clock::now();
        const OpResult plain =
            runOp(args.workload, setup, args.seed, i, spans, false);
        sample.untracedNs += secondsSince(t) * 1e9;
        tally.record(plain, i);
        sample.counts += plain.counts;

        t = Clock::now();
        OpResult traced =
            runOp(args.workload, setup, args.seed, i, off, true);
        sample.tracedNs += secondsSince(t) * 1e9;
        if (traced.ok() && traced.digest != plain.digest)
            traced.failure = "tracing changed the simulated results";
        tally.record(traced, i);
        for (const auto &rec : traced.traces)
            sample.traces.add(*rec);
        ++sample.ops;
        if (loopDone(args, start, ++i, sample.ops, kMinTracedPairs))
            break;
    }

    std::printf("traced op pairs: %zu; untraced %.3f s, traced %.3f s\n",
                sample.ops, sample.untracedNs * 1e-9,
                sample.tracedNs * 1e-9);
    std::printf("self time per span (ms):");
    for (const auto &[name, t] : spans.totalsByName())
        std::printf(" %s=%.3f", name.c_str(),
                    static_cast<double>(t.selfNs) * 1e-6);
    std::printf("\n");
    if (!args.spansOut.empty() && !spans.writeJson(args.spansOut)) {
        std::fprintf(stderr, "cannot write %s\n", args.spansOut.c_str());
        return 1;
    }
    std::printf("%s\n",
                resultLine(tally.failed == 0 && setup_ok, tally.attempted,
                           tally.failed, perLayerMetrics(spans, sample))
                    .c_str());
    return 0;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    try {
        // The calibration kernel's first run allocates its buffers,
        // which peak_rss_mb leaves out with the process image.
        hostbench::calibrationKernel(1);
        const double entry_rss_mib = hostbench::rssMiB("VmRSS");
        const hostbench::Args args = hostbench::parseArgs(argc, argv);
        return args.trace ? hostbench::runTraced(args)
                          : hostbench::runEndToEnd(args, entry_rss_mib);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
