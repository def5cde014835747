/**
 * @file
 * The benchmark's workloads. Each is a closed loop of independent
 * experiments ("ops") run back to back by one client on one thread;
 * op i derives all of its inputs from (workload seed, i) through the
 * program's own generators.
 *
 *  - paper_pairs: one op is one figure cell, an {MPS, FLEP} co-run of
 *    one of the paper's 28 priority pairs (FLEP-HPF, as in Figure 8)
 *    or 28 equal-priority pairs (FLEP-FFS), the small kernel arriving
 *    50 us after the large one. Ops cycle over the 56 cells.
 *  - fleet: one op is one cluster run on 4 K40s with preemptive-
 *    priority placement, trained prediction and no faults.
 *  - hetero_fleet: one op is one cluster run on a 15/5/15-SM fleet
 *    with least-loaded placement priced per device config, two-
 *    invocation batch jobs, checkpoints and the migration rebalancer.
 *
 * Every op's simulated results are checked; a failed check fails the
 * op. The simulated results also feed a digest that must not change
 * when only host speed does.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "flep/experiment.hh"
#include "obs/trace_recorder.hh"
#include "spans.hh"

namespace hostbench
{

enum class WorkloadKind
{
    PaperPairs,
    Fleet,
    HeteroFleet
};

/** Every workload, in declaration order. */
const std::vector<WorkloadKind> &allWorkloads();

/** The command-line name of a workload. */
const char *workloadName(WorkloadKind kind);

/** Parse a command-line name; false when it names no workload. */
bool parseWorkload(const std::string &name, WorkloadKind &out);

/**
 * Ops per full pass over the workload's input space: 56 figure cells
 * for paper_pairs, 1 for the cluster workloads (every op draws a new
 * job mix). Timed loops stop on a pass boundary so that every run
 * weighs every cell equally.
 */
std::size_t cycleLength(WorkloadKind kind);

/** What every op shares: the suite and FLEP's offline products. */
struct Setup
{
    std::unique_ptr<flep::BenchmarkSuite> suite;
    flep::GpuConfig gpu = flep::GpuConfig::keplerK40();
    flep::OfflineArtifacts artifacts;
};

/** Build the suite and run the offline phase (runOfflinePhase with
 *  the paper's 100 training inputs and 50 profiling runs). */
Setup buildSetup();

/**
 * The same products as buildSetup(), with the suite, the model
 * training and the overhead profiling each in its own span.
 */
Setup buildSetupTraced(SpanRecorder &spans);

/** Hash of every trained model and profiled overhead. */
std::uint64_t artifactsDigest(const flep::OfflineArtifacts &art);

/** Program counters of one op, read from the public results. */
struct LayerCounts
{
    long preemptions = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t macroFastChunks = 0;
    std::uint64_t macroSlowChunks = 0;
    std::uint64_t macroWindows = 0;
    std::uint64_t macroInvalidations = 0;
    long placements = 0;
    long preemptivePlacements = 0;
    long faults = 0;
    long restarts = 0;
    long migrations = 0;

    LayerCounts &operator+=(const LayerCounts &o);
};

/** The outcome of one op. */
struct OpResult
{
    /** First failed output check; empty when every check passed. */
    std::string failure;
    /** Simulated seconds the op advanced, over all its simulations. */
    double simSeconds = 0.0;
    /** Hash of every simulated result of the op. */
    std::uint64_t digest = 0;
    LayerCounts counts;
    /** One recorder per simulation, when the op ran traced. */
    std::vector<std::unique_ptr<flep::TraceRecorder>> traces;

    bool ok() const { return failure.empty(); }
};

/**
 * Run op `index` of a workload. Spans around each call into the
 * program go to `spans`; when `traced`, a TraceRecorder is attached
 * to every simulation of the op and handed back in OpResult::traces.
 */
OpResult runOp(WorkloadKind kind, const Setup &setup,
               std::uint64_t seed, std::uint64_t index,
               SpanRecorder &spans, bool traced);

/** Ops attempted and failed; prints the first few failures. */
struct OpTally
{
    long attempted = 0;
    long failed = 0;

    void record(const OpResult &op, std::uint64_t index);
};

/** Ops in the untimed digest prefix every run starts with: one pass
 *  over the cells for paper_pairs, 8 cluster runs otherwise. */
std::uint64_t digestPrefixOps(WorkloadKind kind);

/**
 * Run ops [0, n) untraced, record each in `tally`, and return the
 * digest of all their simulated results.
 */
std::uint64_t prefixDigest(WorkloadKind kind, const Setup &setup,
                           std::uint64_t seed, std::uint64_t n,
                           OpTally &tally);

/** Output check of one co-run: every one of `processes` hosts
 *  completed exactly one invocation. Empty when it holds. */
std::string checkCoRun(const flep::CoRunResult &res,
                       std::size_t processes);

/**
 * Output check of one fault-free cluster run (no workload injects
 * faults): one outcome per submitted job, in id order; every job
 * completed; no job and not the run lost work; and the reported
 * goodput fraction is exactly 1. Empty when it holds.
 */
std::string checkCluster(const flep::ClusterConfig &cfg,
                         const flep::ClusterResult &res);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
