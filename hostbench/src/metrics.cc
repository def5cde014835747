#include "metrics.hh"

namespace hostbench
{

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

template <typename T>
double
count(T v)
{
    return static_cast<double>(v);
}

} // namespace

std::vector<Metric>
endToEndMetrics(const EndToEndSample &s, bool calibrated)
{
    const auto scaled = [&](const std::vector<TimedValue> &values) {
        flep::SampleStats out;
        for (const TimedValue &v : values)
            out.add(v.value * (calibrated ? s.speed.scaleOver(v.fromS, v.toS) : 1.0));
        return out;
    };
    const flep::SampleStats setup = scaled(s.setupS);
    const flep::SampleStats ops = scaled(s.opMs);
    double raw_ops_ms = 0.0;
    for (const TimedValue &v : s.opMs)
        raw_ops_ms += v.value;
    // The loop's time, scaled as its ops were.
    const double loop_s = s.loopSeconds * ratio(ops.sum(), raw_ops_ms);
    return {
        {"setup_s", setup.percentile(50), "s"},
        {"op_p50_ms", ops.percentile(50), "ms"},
        {"op_p90_ms", ops.percentile(kTailPercentile), "ms"},
        {"sim_s_per_host_s", ratio(s.simSeconds, loop_s), "s/s"},
        {"peak_rss_mb", s.peakRssMiB, "MiB"},
    };
}

void
TraceTally::add(const flep::TraceRecorder &rec)
{
    using flep::TraceRecorder;
    total += rec.eventCount();
    for (const flep::TraceEvent &ev : rec.events()) {
        const int pid = ev.pid;
        const char *layer = "host";
        if (pid >= TraceRecorder::pidDeviceBase)
            layer = (pid - TraceRecorder::pidDeviceBase) % 2 == 0
                ? "gpu"
                : "runtime";
        else if (pid == TraceRecorder::pidGpu)
            layer = "gpu";
        else if (pid == TraceRecorder::pidRuntime)
            layer = "runtime";
        else if (pid == TraceRecorder::pidCluster)
            layer = "cluster";
        ++byLayer[layer];
    }
}

std::vector<Metric>
perLayerMetrics(const SpanRecorder &spans, const TracedSample &s)
{
    const double ops = count(s.ops);
    const auto perOp = [ops](double total) { return ratio(total, ops); };
    const auto span = [&spans](const char *name) {
        return spans.durationsOf(name).percentile(50) * 1e-6;
    };
    const double run_ns = spans.durationsOf("sim.run").sum();
    const LayerCounts &c = s.counts;
    const double chunks = count(c.macroFastChunks + c.macroSlowChunks);

    std::vector<Metric> m = {
        // Per set-up, not per op.
        {"perfmodel.train_ms", span("perfmodel.train"), "ms"},
        {"perfmodel.profile_ms", span("perfmodel.profile"), "ms"},

        {"corun.baseline_ms", span("corun.baseline"), "ms"},
        {"corun.flep_ms", span("corun.flep"), "ms"},
        {"runtime.preemptions", perOp(count(c.preemptions)), "count"},

        {"sim.run_ms", span("sim.run"), "ms"},
        {"sim.events", perOp(count(c.simEvents)), "count"},
        {"sim.host_ns_per_event", ratio(run_ns, count(c.simEvents)),
         "ns"},

        {"gpu.macro.hit_rate", ratio(count(c.macroFastChunks), chunks),
         "fraction"},
        {"gpu.macro.windows", perOp(count(c.macroWindows)), "count"},
        {"gpu.macro.invalidations", perOp(count(c.macroInvalidations)),
         "count"},
        {"gpu.macro.chunks_per_window",
         ratio(count(c.macroFastChunks), count(c.macroWindows)), "count"},
        {"gpu.host_ns_per_chunk", ratio(run_ns, chunks), "ns"},

        {"cluster.arrivals_ms", span("cluster.arrivals"), "ms"},
        {"cluster.build_ms", span("cluster.build"), "ms"},
        {"cluster.collect_ms", span("cluster.collect"), "ms"},
        {"cluster.placements", perOp(count(c.placements)), "count"},
        {"cluster.preemptive_placements",
         perOp(count(c.preemptivePlacements)), "count"},

        {"resilience.faults", perOp(count(c.faults)), "count"},
        {"resilience.restarts", perOp(count(c.restarts)), "count"},
        {"resilience.migrations", perOp(count(c.migrations)), "count"},

        {"obs.trace_events", perOp(count(s.traces.total)), "count"},
    };
    for (const auto &[layer, n] : s.traces.byLayer)
        m.push_back({"obs.trace_events." + layer, perOp(count(n)), "count"});
    const double extra_ns = s.tracedNs - s.untracedNs;
    m.push_back({"obs.host_ns_per_trace_event",
                 ratio(extra_ns, count(s.traces.total)), "ns"});
    m.push_back({"obs.trace_overhead_pct",
                 ratio(extra_ns, s.untracedNs) * 100.0, "%"});
    return m;
}

} // namespace hostbench
