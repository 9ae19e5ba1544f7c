/**
 * @file
 * Shared declarations of the repo benchmark.
 *
 * The benchmark is a client of the simulator's public API only: it
 * builds clusters, drives kv::KvService / core::Node as a closed-loop
 * client, runs sim::Simulator, and reads MetricsRegistry, Tracer,
 * StorageNetwork and per-component accessors. Each workload runs in
 * rounds; a round is one fresh set-up (cluster, preload, warm-up)
 * followed by one measured phase of a fixed number of operations.
 * Simulated results of a round are exact for a seed, so every round
 * of one run must reproduce the first one bit for bit.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace perfbench {

using bluedbm::sim::Tick;

/**
 * Cluster-wide layer counters at one instant. Two snapshots around a
 * measured phase give the phase's work per layer.
 */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t msgs = 0;      //!< summed endpoint sent()
    std::uint64_t laneBytes = 0; //!< StorageNetwork::totalLaneBytes
    std::uint64_t nandRead = 0;
    std::uint64_t nandWritten = 0;
    std::uint64_t blocksErased = 0;
    std::uint64_t suspendedPrograms = 0;
    std::uint64_t fsPagesWritten = 0;
    std::uint64_t fsPagesCleaned = 0;
    std::uint64_t shardPuts = 0;
    std::uint64_t shardGets = 0;
    std::uint64_t coalescedGets = 0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t remoteOps = 0;
    std::uint64_t localOps = 0;
    bluedbm::sim::LatencyHistogram admission, net, shard, flashQueue,
        nand;

    /** Add the activity between two snapshots (after - before). */
    void addDelta(const LayerCounts &after, const LayerCounts &before);
    /** Add another accumulated delta. */
    void add(const LayerCounts &o);
};

/** Snapshot every layer counter of @p cluster (router may be null). */
LayerCounts snapshotLayers(bluedbm::sim::Simulator &sim,
                           bluedbm::core::Cluster &cluster,
                           bluedbm::kv::KvRouter *router);

/** One measured operation as the client saw it (traced rounds). */
struct OpRecord
{
    std::uint64_t key = 0; //!< KV key, or page index on fabric_scan
    Tick start = 0;
    Tick end = 0;
};

/**
 * Everything one round produced, or several rounds pooled (absorb).
 */
struct RoundResult
{
    /** @name Simulated (exact for a seed) */
    ///@{
    std::uint64_t ops = 0;    //!< measured operations attempted
    std::uint64_t failed = 0; //!< failed measured operations
    std::vector<Tick> lat;    //!< every measured op's latency
    std::vector<Tick> writeLat;
    /**
     * Steady state of the closed loop: ops completed, and simulated
     * time, from the start of the measured phase to its last issue.
     * The drain after the last issue (fewer ops in flight) is
     * excluded from the throughput.
     */
    std::uint64_t steadyOps = 0;
    Tick steadySpan = 0;
    std::uint64_t putsAcked = 0;
    std::uint64_t userBytesPut = 0;
    std::uint64_t bytesPerOp = 0; //!< payload per op (GB/s figure)
    std::uint32_t pageSize = 0;
    std::uint64_t eventPoolSlots = 0; //!< high-water
    LayerCounts layers;               //!< measured-phase activity
    /** Failed checks (ops or run-level), and the first few of them
     * for the report. */
    std::uint64_t checksFailed = 0;
    std::vector<std::string> errors;
    std::vector<OpRecord> opLog; //!< traced rounds only
    ///@}

    /** @name Traced rounds */
    ///@{
    std::map<std::string, double> selfTicks; //!< by span name
    std::uint64_t tracesChecked = 0;
    std::uint64_t tracesBad = 0;
    ///@}

    /** @name Host (noisy) */
    ///@{
    double setupS = 0.0;
    double measureS = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    ///@}

    /** Record a verification failure. */
    void fail(const std::string &why);
    /** Pool another round's simulated results into this one. */
    void absorb(const RoundResult &o);
};

/**
 * One workload instance: owns its simulated cluster for one round.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the cluster, preload and warm up (timed as set-up). */
    virtual void setup(RoundResult &r) = 0;
    /** The measured phase (timed). */
    virtual void measure(RoundResult &r) = 0;
    /** Untimed post-run checks (anti-entropy, byte compares). */
    virtual void verify(RoundResult &r) = 0;
};

/**
 * Build workload @p name for one round. @p ops overrides the
 * measured operation count (0 = the workload's default).
 */
std::unique_ptr<Workload> makeKvWorkload(const std::string &name,
                                         std::uint64_t seed,
                                         std::uint64_t ops,
                                         bool traced);
std::unique_ptr<Workload> makeFabricScan(std::uint64_t seed,
                                         std::uint64_t ops,
                                         bool traced);

/**
 * Check every retained trace of @p tracer against the client's own
 * op log and accumulate per-span-name self time into @p r. A trace
 * passes when its spans are closed and nested in their parents, its
 * root matches a client op exactly, and its span self times sum
 * exactly to that op's client-measured latency.
 */
void analyzeTraces(const bluedbm::sim::Tracer &tracer, RoundResult &r);

/** Per-layer metrics of a round (exact counts per measured op). */
std::map<std::string, double> layerMetrics(const RoundResult &r);

/** Span names reported as trace.self_us.<name>. */
extern const std::vector<std::string> kSpanNames;

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
