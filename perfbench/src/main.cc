/**
 * @file
 * Benchmark entry point.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--ops <n>] [--rounds <k>]
 *
 * A round is one fresh set-up (cluster, preload, warm-up) followed by
 * a measured phase of a fixed operation count. A run makes k rounds
 * (default 16), each with its own round seed derived from --seed, and
 * pools their simulated results: one placement of the hot keys or one
 * address stream is a single draw, and pooling k of them keeps the
 * seed-to-seed spread of the simulated metrics small. The run then
 * repeats its rounds until --seconds of wall time have passed; every
 * repeat must reproduce its round's simulated results exactly.
 * host_us_per_op is the fastest round's; setup_s the median set-up.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 makes the k
 * rounds host-profiled (SIGPROF), then repeats them traced, at least
 * twice, and prints the per-layer metrics. The last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; the line
 * before it is the full report as {"report": {...}}. The exit code is
 * non-zero when any verification failed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hh"
#include "host_probe.hh"

namespace perfbench {

namespace {

const char *const kWorkloads[] = {"kv_zipf_get", "kv_uniform_put",
                                  "fabric_scan"};

using bluedbm::sim::ticksToSec;
using bluedbm::sim::ticksToUs;

/** The paper's figure 13 ISP-3Nodes bandwidth. */
constexpr double kPaperGbps = 6.5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t ops = 0;
    unsigned rounds = 16;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<kv_zipf_get|kv_uniform_put|fabric_scan> --seed <n> "
                 "--seconds <s> --trace <0|1> [--ops <n>] "
                 "[--rounds <n>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            continue;
        }
        double x = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || x < 0)
            usage(("bad value for " + a).c_str());
        if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = x;
        else if (a == "--trace")
            o.trace = x != 0;
        else if (a == "--ops")
            o.ops = std::uint64_t(x);
        else if (a == "--rounds" && x >= 1)
            o.rounds = unsigned(x);
        else
            usage(("unknown option " + a).c_str());
    }
    if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char *w) { return o.workload == w; }) ==
        std::end(kWorkloads))
        usage("unknown workload");
    return o;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Mean of exact samples, rounded down to a tick. */
Tick
mean(const std::vector<Tick> &v)
{
    long double sum = 0;
    for (Tick t : v)
        sum += t;
    return v.empty() ? 0 : Tick(sum / v.size());
}

/** Nearest-rank percentile of exact samples. */
Tick
percentile(std::vector<Tick> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = std::size_t(std::ceil(q * double(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/**
 * Every simulated output of a round as text, for the exactness check
 * between rounds (and between traced and untraced rounds).
 */
std::string
fingerprint(const RoundResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    for (Tick t : r.lat)
        h = bluedbm::kv::mix64(h ^ t);
    std::string s = std::to_string(h) + "/" +
        std::to_string(r.steadyOps) + "/" + std::to_string(r.steadySpan) +
        "/" + std::to_string(r.writeLat.size()) + "/" +
        std::to_string(r.failed);
    char buf[64];
    for (const auto &[k, v] : layerMetrics(r)) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += "/" + k + "=" + buf;
    }
    return s;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(std::FILE *f, const std::vector<Metric> &ms)
{
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                     ms[i].unit.c_str());
    std::fprintf(f, "}");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::unique_ptr<Workload>
make(const Options &o, std::uint64_t seed, bool traced)
{
    if (o.workload == "fabric_scan")
        return makeFabricScan(seed, o.ops, traced);
    return makeKvWorkload(o.workload, seed, o.ops, traced);
}

/** Seed of round @p k of a run seeded @p seed. */
std::uint64_t
roundSeed(std::uint64_t seed, unsigned k)
{
    return bluedbm::kv::mix64(seed * 0x9e3779b97f4a7c15ull + k);
}

std::string
unitOf(const std::string &name)
{
    auto ends = [&](const char *suf) {
        std::string s(suf);
        return name.size() >= s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_us"))
        return "us";
    if (ends("bytes_per_op"))
        return "B";
    if (ends("_ratio") || ends("_frac") || ends("per_page") ||
        ends("write_amp"))
        return "ratio";
    return "count";
}

} // namespace

int
run(int argc, char **argv)
{
    Options o = parse(argc, argv);
    auto t_start = std::chrono::steady_clock::now();

    // Rounds 0..K-1 are the run's simulated sample, one round seed
    // each. Later rounds repeat them (traced, when --trace 1) for
    // host timing and must reproduce them exactly.
    const unsigned k_rounds = o.rounds;
    std::vector<std::string> prints(k_rounds);
    RoundResult pooled, traced_first;
    std::vector<double> setup_s, host_us, host_ns_event, overhead;
    std::vector<double> untraced_us(k_rounds);
    std::uint64_t attempted = 0, failed = 0, checks_failed = 0;
    std::uint64_t allocs = 0, alloc_bytes = 0;
    std::vector<std::string> errors;
    unsigned rounds = 0;
    std::string detail;

    for (;; ++rounds) {
        unsigned k = rounds % k_rounds;
        bool traced = o.trace && rounds >= k_rounds;
        RoundResult r;
        auto w = make(o, roundSeed(o.seed, k), traced);
        auto t0 = std::chrono::steady_clock::now();
        w->setup(r);
        auto t1 = std::chrono::steady_clock::now();
        AllocCounts a0 = allocCounts();
        if (o.trace && !traced)
            profilerStart();
        w->measure(r);
        profilerStop();
        auto t2 = std::chrono::steady_clock::now();
        AllocCounts a1 = allocCounts();
        w->verify(r);
        w.reset();

        double us = seconds(t1, t2) * 1e6 /
            double(std::max<std::uint64_t>(r.ops, 1));
        setup_s.push_back(seconds(t0, t1));
        detail += (detail.empty() ? "" : ", ") + std::string("[") +
            std::to_string(k) + ", " + std::to_string(int(traced)) + ", " +
            std::to_string(seconds(t0, t1)) + ", " + std::to_string(us) + "]";
        if (traced) {
            overhead.push_back(us / untraced_us[k]);
        } else {
            host_us.push_back(us);
            host_ns_event.push_back(seconds(t1, t2) * 1e9 /
                                    double(std::max<std::uint64_t>(
                                        r.layers.events, 1)));
        }
        attempted += r.ops;
        failed += r.failed;
        checks_failed += r.checksFailed;
        for (const auto &e : r.errors)
            if (errors.size() < 8)
                errors.push_back(e);

        std::string print = fingerprint(r);
        if (rounds < k_rounds) {
            prints[k] = print;
            untraced_us[k] = us;
            allocs += a1.allocs - a0.allocs;
            alloc_bytes += a1.bytes - a0.bytes;
            pooled.absorb(r);
        } else if (print != prints[k]) {
            ++checks_failed;
            errors.push_back("round " + std::to_string(rounds) +
                             (traced ? " (traced)" : "") +
                             " did not reproduce the simulated results "
                             "of round " + std::to_string(k));
        }
        if (traced && rounds == k_rounds)
            traced_first.absorb(r);
        double elapsed = seconds(t_start, std::chrono::steady_clock::now());
        unsigned min_rounds = o.trace ? k_rounds + 2 : k_rounds;
        if (rounds + 1 >= min_rounds && elapsed >= o.seconds)
            break;
    }
    ++rounds;

    const RoundResult &r = pooled;
    bool correct = checks_failed == 0;
    double sim_s = ticksToSec(r.steadySpan);
    double ops_per_s = sim_s > 0 ? double(r.steadyOps) / sim_s : 0.0;
    double gbps = ops_per_s * double(r.bytesPerOp) / 1e9;
    // The fastest round: host CPU speed on a shared machine swings
    // by tens of percent over seconds, and the best of many rounds is
    // the steadiest estimate of what the code costs.
    double best_host_us = *std::min_element(host_us.begin(), host_us.end());

    std::vector<Metric> e2e = {
        {"sim_ops_per_s", ops_per_s, "1/s"},
        {"sim_mean_us", ticksToUs(mean(r.lat)), "us"},
        {"sim_p99_us", ticksToUs(percentile(r.lat, 0.99)), "us"},
        {"host_us_per_op", best_host_us, "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    // Workload-specific end-to-end metrics and context (report only:
    // the final line carries the metrics every workload has).
    std::vector<Metric> extra = {
        {"sim_latency_samples", double(r.lat.size()), "count"},
        {"sim_p50_us", ticksToUs(percentile(r.lat, 0.50)), "us"},
    };
    if (!r.writeLat.empty()) {
        extra.push_back({"sim_write_p99_us",
                         ticksToUs(percentile(r.writeLat, 0.99)), "us"});
        extra.push_back({"sim_write_samples", double(r.writeLat.size()),
                         "count"});
    }
    if (o.workload == "fabric_scan") {
        extra.push_back({"sim_gb_per_s", gbps, "GB/s"});
        extra.push_back({"paper_err_pct",
                         100.0 * std::fabs(gbps - kPaperGbps) / kPaperGbps,
                         "%"});
    }
    extra.push_back({"rounds", double(rounds), "count"});
    extra.push_back({"host_us_per_op_median", median(host_us), "us"});
    extra.push_back({"host_us_per_op_max",
                     *std::max_element(host_us.begin(), host_us.end()),
                     "us"});

    std::vector<Metric> layer;
    if (o.trace) {
        layer.push_back({"sim.host_ns_per_event",
                         *std::min_element(host_ns_event.begin(),
                                           host_ns_event.end()),
                         "ns"});
        for (const auto &[k, v] : layerMetrics(r))
            layer.push_back({k, v, unitOf(k)});
        double ops = double(std::max<std::uint64_t>(r.ops, 1));
        layer.push_back({"host.allocs_per_op", double(allocs) / ops,
                         "count"});
        layer.push_back({"host.alloc_bytes_per_op",
                         double(alloc_bytes) / ops, "B"});
        const RoundResult &t = traced_first;
        double traces = double(std::max<std::uint64_t>(t.tracesChecked, 1));
        for (const std::string &span : kSpanNames) {
            auto it = t.selfTicks.find(span);
            double ticks = it == t.selfTicks.end() ? 0.0 : it->second;
            layer.push_back({"trace.self_us." + span,
                             ticks / traces / double(bluedbm::sim::oneUs),
                             "us"});
        }
        for (const auto &[k, v] : profileByLayer())
            layer.push_back({"host.self_pct." + k, v, "%"});
        layer.push_back({"trace.overhead_pct",
                         100.0 * (median(overhead) - 1.0), "%"});
        extra.push_back({"traces_checked", double(t.tracesChecked),
                         "count"});
        extra.push_back({"profile_samples", double(profilerSamples()),
                         "count"});
    }

    std::printf("{\"report\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"end_to_end\": ",
                o.workload.c_str(), (unsigned long long)o.seed,
                int(o.trace));
    printMetrics(stdout, e2e);
    std::printf(", \"extra\": ");
    printMetrics(stdout, extra);
    std::printf(", \"per_layer\": ");
    printMetrics(stdout, layer);
    std::printf(", \"rounds_detail\": [%s]", detail.c_str());
    std::printf(", \"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i)
        std::printf("%s%s", i ? ", " : "", jsonString(errors[i]).c_str());
    std::printf("]}}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    printMetrics(stdout, o.trace ? layer : e2e);
    std::printf("}\n");
    std::fflush(stdout);
    for (const auto &e : errors)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
    return correct ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
