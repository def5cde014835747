#include "workloads.hh"

#include <cstdio>
#include <cstring>

#include "cluster/arrival_gen.hh"
#include "cluster/cluster_metrics.hh"
#include "perfmodel/overhead_profiler.hh"
#include "perfmodel/trainer.hh"
#include "sim/simulation.hh"

namespace hostbench
{

using namespace flep;

namespace
{

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** The small kernel's arrival after the large one, as in Figs 8/10. */
constexpr Tick kSmallDelayNs = 50 * 1000;
constexpr Priority kHighPrio = 5;

// The offline phase's parameters: the paper's 100 training inputs and
// 50 profiling runs, with runOfflinePhase's default seed.
constexpr int kTrainInputs = 100;
constexpr int kProfileRuns = 50;
constexpr std::uint64_t kOfflineSeed = 999;

// Cluster workloads: a Poisson two-class mix at 90% load.
constexpr double kLoad = 0.9;
constexpr double kTargetJobs = 40.0;
constexpr double kBatchWeight = 0.6;
constexpr double kSloFactor = 4.0;

/** Fold a 64-bit value into an FNV-1a hash. */
std::uint64_t
hashWord(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h = (h ^ (v & 0xff)) * kFnvPrime;
        v >>= 8;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashDouble(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return hashWord(h, bits);
}

std::uint64_t
hashString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = (h ^ c) * kFnvPrime;
    return hashWord(h, s.size());
}

/** FNV-1a over the simulated results. Macro-step engagement
 *  counters are left out: they depend on the fast-path budget by
 *  design, the results must not. */
std::uint64_t
hashCoRun(std::uint64_t h, const CoRunResult &res)
{
    for (const InvocationResult &inv : res.invocations) {
        h = hashString(h, inv.kernel);
        h = hashWord(h, static_cast<std::uint64_t>(inv.process));
        h = hashWord(h, static_cast<std::uint64_t>(inv.priority));
        h = hashWord(h, inv.invokeTick);
        h = hashWord(h, inv.finishTick);
        h = hashWord(h, static_cast<std::uint64_t>(inv.preemptions));
        h = hashWord(h, static_cast<std::uint64_t>(inv.totalTasks));
        h = hashWord(h, inv.execNs);
    }
    h = hashWord(h, res.makespanNs);
    h = hashWord(h, static_cast<std::uint64_t>(res.preemptions));
    for (const auto &[pid, share] : res.overallShare) {
        h = hashWord(h, static_cast<std::uint64_t>(pid));
        h = hashDouble(h, share);
    }
    return h;
}

std::uint64_t
hashCluster(std::uint64_t h, const ClusterResult &res)
{
    const auto word = [&h](auto v) {
        h = hashWord(h, static_cast<std::uint64_t>(v));
    };
    for (const JobOutcome &o : res.outcomes) {
        word(o.job.id);
        h = hashString(h, o.job.workload);
        word(o.job.priority);
        word(o.job.arrivalNs);
        word(o.device);
        word(o.placed);
        word(o.completed);
        word(o.displacedVictim);
        word(o.placeTick);
        word(o.finishTick);
        word(o.preemptions);
        word(o.execNs);
        word(o.restarts);
        word(o.migrations);
        word(o.lostWorkNs);
        word(o.failedPermanently);
        word(o.predictedDemandNs);
    }
    word(res.makespanNs);
    word(res.placements);
    word(res.preemptivePlacements);
    for (long p : res.devicePreemptions)
        word(p);
    for (double u : res.deviceUtilization)
        h = hashDouble(h, u);
    for (long n : res.deviceJobCounts)
        word(n);
    word(res.faultsInjected);
    word(res.restarts);
    word(res.migrations);
    word(res.permanentFailures);
    word(res.lostWorkNs);
    word(res.sparesActivated);
    word(res.spareActivationLatencyNs);
    word(res.jobsAbsorbedBySpares);
    for (double r : res.deviceFaultRatePerSec)
        h = hashDouble(h, r);
    return h;
}

/** The seed of op `index` of a run seeded with `seed`. */
std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t index)
{
    return splitmix64(splitmix64(seed) ^ index);
}

/** One paper_pairs cell: the pair and the FLEP scheduler it uses. */
struct PairCell
{
    std::string large;
    std::string small;
    SchedulerKind flep;
    Priority smallPriority;
};

const std::vector<PairCell> &
pairCells()
{
    static const std::vector<PairCell> cells = [] {
        std::vector<PairCell> out;
        for (const auto &[low_large, high_small] : priorityPairs())
            out.push_back({low_large, high_small, SchedulerKind::FlepHpf,
                           kHighPrio});
        for (const auto &[large, small] : equalPriorityPairs())
            out.push_back({large, small, SchedulerKind::FlepFfs, 0});
        return out;
    }();
    return cells;
}

/** Run one co-run, spanned and optionally traced; check and digest. */
void
coRun(const Setup &setup, const PairCell &cell, SchedulerKind kind,
      std::uint64_t seed, const char *span, SpanRecorder &spans,
      bool traced, OpResult &op)
{
    CoRunConfig cfg;
    cfg.gpu = setup.gpu;
    cfg.scheduler = kind;
    cfg.seed = seed;
    cfg.kernels = {{cell.large, InputClass::Large, 0, 0, 1},
                   {cell.small, InputClass::Small, cell.smallPriority,
                    kSmallDelayNs, 1}};
    if (traced) {
        op.traces.push_back(std::make_unique<TraceRecorder>());
        cfg.tracer = op.traces.back().get();
    }
    CoRunResult res;
    {
        SpanRecorder::Scope s(spans, span);
        res = runCoRun(*setup.suite, setup.artifacts, cfg);
    }
    if (op.ok())
        op.failure = checkCoRun(res, cfg.kernels.size());
    op.simSeconds += static_cast<double>(res.makespanNs) * 1e-9;
    op.digest = hashCoRun(op.digest, res);
    if (kind != SchedulerKind::Mps)
        op.counts.preemptions += res.preemptions;
}

OpResult
pairOp(const Setup &setup, std::uint64_t seed, std::uint64_t index,
       SpanRecorder &spans, bool traced)
{
    const auto &cells = pairCells();
    const PairCell &cell = cells[index % cells.size()];
    // One simulation seed per pass over the cells, as the figure
    // benches use one seed per repetition.
    const std::uint64_t sim_seed = opSeed(seed, index / cells.size());
    OpResult op;
    op.digest = kFnvOffset;
    coRun(setup, cell, SchedulerKind::Mps, sim_seed, "corun.baseline",
          spans, traced, op);
    coRun(setup, cell, cell.flep, sim_seed, "corun.flep", spans, traced,
          op);
    return op;
}

double
predictJobNs(const Setup &setup, const ArrivalClassSpec &cls)
{
    const InputSpec in =
        setup.suite->byName(cls.workload).input(cls.input);
    return setup.artifacts.models.at(cls.workload).predictNs(in) *
           cls.repeats;
}

/**
 * The two-class arrival mix both cluster workloads share: 60% batch
 * (VA large, `batch_repeats` invocations) and 40% interactive (NN
 * small at high priority, SLO of 4x its predicted time), Poisson at
 * 90% load over `devices` devices, sized for about 40 jobs.
 */
ClusterArrivalConfig
arrivalMix(const Setup &setup, int devices, int batch_repeats,
           std::uint64_t seed)
{
    ArrivalClassSpec batch;
    batch.workload = "VA";
    batch.input = InputClass::Large;
    batch.priority = 0;
    batch.repeats = batch_repeats;

    ArrivalClassSpec interactive;
    interactive.workload = "NN";
    interactive.input = InputClass::Small;
    interactive.priority = kHighPrio;
    interactive.sloNs = static_cast<Tick>(
        kSloFactor * predictJobNs(setup, interactive));

    const double weights[2] = {kBatchWeight, 1.0 - kBatchWeight};
    const double svc_ms = (weights[0] * predictJobNs(setup, batch) +
                           weights[1] * predictJobNs(setup, interactive)) /
                          1e6;
    const double rate_per_ms = kLoad * devices / svc_ms;

    ClusterArrivalConfig acfg;
    acfg.pattern = ArrivalPattern::Poisson;
    acfg.horizonNs =
        static_cast<Tick>(kTargetJobs / rate_per_ms * 1e6);
    acfg.seed = seed;
    acfg.classes = {batch, interactive};
    for (int i = 0; i < 2; ++i)
        acfg.classes[static_cast<std::size_t>(i)].ratePerMs =
            weights[i] * rate_per_ms;
    return acfg;
}

ClusterConfig
fleetConfig(const Setup &setup, std::uint64_t seed, SpanRecorder &spans)
{
    ClusterConfig cfg;
    cfg.gpu = setup.gpu;
    cfg.devices = 4;
    cfg.placement = PlacementKind::PreemptivePriority;
    cfg.prediction = PredictionSource::Trained;
    cfg.deviceScheduler = SchedulerKind::FlepHpf;
    cfg.deviceCapacity = 1;
    cfg.seed = seed;
    SpanRecorder::Scope s(spans, "cluster.arrivals");
    cfg.jobs = generateClusterJobs(arrivalMix(setup, cfg.devices, 1, seed));
    return cfg;
}

ClusterConfig
heteroFleetConfig(const Setup &setup, std::uint64_t seed,
                  SpanRecorder &spans)
{
    ClusterConfig cfg;
    cfg.gpu = setup.gpu;
    cfg.devices = 3;
    GpuConfig narrow = setup.gpu;
    narrow.numSms = 5;
    cfg.deviceGpus = {setup.gpu, narrow, setup.gpu};
    cfg.placement = PlacementKind::LeastLoaded;
    cfg.prediction = PredictionSource::Trained;
    cfg.deviceScheduler = SchedulerKind::FlepHpf;
    cfg.deviceCapacity = 2;
    cfg.seed = seed;
    {
        SpanRecorder::Scope s(spans, "cluster.arrivals");
        cfg.jobs =
            generateClusterJobs(arrivalMix(setup, cfg.devices, 2, seed));
    }
    // Fault injection stays off: a device fault landing while a job's
    // completion notice is in flight aborts the FLEP runtime (see
    // README.md), so only the fault-free resilience paths run here:
    // checkpoint capture at every drain boundary and the migration
    // rebalancer.
    cfg.resilience.checkpoints = true;
    cfg.resilience.migration.enabled = true;
    return cfg;
}

OpResult
clusterOp(WorkloadKind kind, const Setup &setup, std::uint64_t seed,
          std::uint64_t index, SpanRecorder &spans, bool traced)
{
    const std::uint64_t op_seed = opSeed(seed, index);
    const ClusterConfig cfg = kind == WorkloadKind::Fleet
        ? fleetConfig(setup, op_seed, spans)
        : heteroFleetConfig(setup, op_seed, spans);

    OpResult op;
    Simulation sim(cfg.seed);
    if (traced) {
        op.traces.push_back(std::make_unique<TraceRecorder>());
        op.traces.back()->bindClock(sim.events());
        sim.setTracer(op.traces.back().get());
    }
    ClusterResult res;
    {
        std::unique_ptr<ClusterScheduler> cluster;
        {
            SpanRecorder::Scope s(spans, "cluster.build");
            cluster = std::make_unique<ClusterScheduler>(
                sim, *setup.suite, setup.artifacts, cfg);
        }
        {
            SpanRecorder::Scope s(spans, "sim.run");
            cluster->start();
            sim.run();
        }
        SpanRecorder::Scope s(spans, "cluster.collect");
        res = cluster->collect();
    }

    op.failure = checkCluster(cfg, res);
    op.simSeconds = static_cast<double>(sim.now()) * 1e-9;
    op.digest = hashCluster(kFnvOffset, res);

    LayerCounts &c = op.counts;
    for (long p : res.devicePreemptions)
        c.preemptions += p;
    c.simEvents = sim.events().executedCount();
    for (const DeviceMacroStats &m : res.deviceMacroStats) {
        c.macroFastChunks += m.fastChunks;
        c.macroSlowChunks += m.slowChunks;
        c.macroWindows += m.windows;
        c.macroInvalidations += m.invalidations;
    }
    c.placements = res.placements;
    c.preemptivePlacements = res.preemptivePlacements;
    c.faults = res.faultsInjected;
    c.restarts = res.restarts;
    c.migrations = res.migrations;
    return op;
}

} // namespace

const std::vector<WorkloadKind> &
allWorkloads()
{
    static const std::vector<WorkloadKind> all = {
        WorkloadKind::PaperPairs, WorkloadKind::Fleet,
        WorkloadKind::HeteroFleet};
    return all;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::PaperPairs:
        return "paper_pairs";
    case WorkloadKind::Fleet:
        return "fleet";
    case WorkloadKind::HeteroFleet:
        return "hetero_fleet";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind k : allWorkloads()) {
        if (name == workloadName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::size_t
cycleLength(WorkloadKind kind)
{
    return kind == WorkloadKind::PaperPairs ? pairCells().size() : 1;
}

Setup
buildSetup()
{
    Setup s;
    s.suite = std::make_unique<BenchmarkSuite>();
    s.artifacts = runOfflinePhase(*s.suite, s.gpu, kTrainInputs,
                                  kProfileRuns, kOfflineSeed);
    return s;
}

Setup
buildSetupTraced(SpanRecorder &spans)
{
    // Mirrors runOfflinePhase step by step so each step gets a span;
    // the caller checks the products against runOfflinePhase's.
    SpanRecorder::Scope setup_span(spans, "setup");
    Setup s;
    {
        SpanRecorder::Scope span(spans, "setup.suite");
        s.suite = std::make_unique<BenchmarkSuite>();
    }
    {
        SpanRecorder::Scope span(spans, "perfmodel.train");
        TrainerConfig tcfg;
        tcfg.trainInputs = kTrainInputs;
        tcfg.seed = kOfflineSeed;
        s.artifacts.models = ModelTrainer(s.gpu, tcfg).trainSuite(*s.suite);
    }
    {
        SpanRecorder::Scope span(spans, "perfmodel.profile");
        ProfilerConfig pcfg;
        pcfg.runs = kProfileRuns;
        pcfg.seed = kOfflineSeed * 31 + 7;
        s.artifacts.overheads = profileSuite(s.gpu, *s.suite, pcfg);
    }
    for (const auto &w : s.suite->all())
        s.artifacts.amortizeL[w->name()] = w->paperAmortizeL();
    return s;
}

std::uint64_t
artifactsDigest(const OfflineArtifacts &art)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &[name, model] : art.models) {
        h = hashString(h, name);
        const RidgeModel &r = model.regression();
        for (const auto *vec : {&r.coefficients(), &r.means(), &r.scales()}) {
            h = hashWord(h, vec->size());
            for (double v : *vec)
                h = hashDouble(h, v);
        }
        h = hashDouble(h, r.intercept());
    }
    for (const auto &[name, ticks] : art.overheads) {
        h = hashString(h, name);
        h = hashWord(h, ticks);
    }
    for (const auto &[name, l] : art.amortizeL) {
        h = hashString(h, name);
        h = hashWord(h, static_cast<std::uint64_t>(l));
    }
    return h;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    preemptions += o.preemptions;
    simEvents += o.simEvents;
    macroFastChunks += o.macroFastChunks;
    macroSlowChunks += o.macroSlowChunks;
    macroWindows += o.macroWindows;
    macroInvalidations += o.macroInvalidations;
    placements += o.placements;
    preemptivePlacements += o.preemptivePlacements;
    faults += o.faults;
    restarts += o.restarts;
    migrations += o.migrations;
    return *this;
}

OpResult
runOp(WorkloadKind kind, const Setup &setup, std::uint64_t seed,
      std::uint64_t index, SpanRecorder &spans, bool traced)
{
    SpanRecorder::Scope s(spans, "op");
    if (kind == WorkloadKind::PaperPairs)
        return pairOp(setup, seed, index, spans, traced);
    return clusterOp(kind, setup, seed, index, spans, traced);
}

void
OpTally::record(const OpResult &op, std::uint64_t index)
{
    ++attempted;
    if (op.ok())
        return;
    if (++failed <= 5)
        std::fprintf(stderr, "op %llu failed: %s\n",
                     static_cast<unsigned long long>(index),
                     op.failure.c_str());
}

std::uint64_t
digestPrefixOps(WorkloadKind kind)
{
    return kind == WorkloadKind::PaperPairs ? cycleLength(kind) : 8;
}

std::uint64_t
prefixDigest(WorkloadKind kind, const Setup &setup, std::uint64_t seed,
             std::uint64_t n, OpTally &tally)
{
    SpanRecorder off(false);
    std::uint64_t digest = kFnvOffset;
    for (std::uint64_t i = 0; i < n; ++i) {
        const OpResult op = runOp(kind, setup, seed, i, off, false);
        tally.record(op, i);
        digest = hashWord(digest, op.digest);
    }
    return digest;
}

std::string
checkCoRun(const CoRunResult &res, std::size_t processes)
{
    if (res.invocations.size() != processes)
        return "co-run completed " +
               std::to_string(res.invocations.size()) + " of " +
               std::to_string(processes) + " invocations";
    for (std::size_t p = 0; p < processes; ++p) {
        if (res.completedOf(static_cast<ProcessId>(p)) != 1)
            return "co-run process " + std::to_string(p) +
                   " did not complete its invocation";
    }
    return {};
}

std::string
checkCluster(const ClusterConfig &cfg, const ClusterResult &res)
{
    if (res.outcomes.size() != cfg.jobs.size())
        return "cluster reported " + std::to_string(res.outcomes.size()) +
               " outcomes for " + std::to_string(cfg.jobs.size()) +
               " jobs";
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        const JobOutcome &o = res.outcomes[i];
        if (o.job.id != static_cast<int>(i))
            return "outcome " + std::to_string(i) + " holds job " +
                   std::to_string(o.job.id);
        if (!o.completed || o.failedPermanently)
            return "job " + std::to_string(i) + " did not complete";
        if (o.lostWorkNs != 0)
            return "job " + std::to_string(i) + " lost work";
    }
    if (res.lostWorkNs != 0)
        return "the fault-free run reports lost work";
    if (computeClusterMetrics(res).goodputFraction != 1.0)
        return "the fault-free run reports goodput below 1";
    return {};
}

} // namespace hostbench
