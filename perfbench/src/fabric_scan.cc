/**
 * @file
 * fabric_scan: the paper's figure 13 ISP-3Nodes shape. Node 0 reads
 * random full 8 KB pages through core::Node::ispReadRemote from its
 * own flash and from two remote nodes, each remote on two serial
 * links. One closed-loop stream per target keeps 512 reads
 * outstanding; streams draw from one shared quota, so the measured
 * rate is the sum of three saturated pipes, which is the quantity the
 * paper reports (6.5 GB/s).
 *
 * Verification: every page must arrive full size, and a seeded sample
 * of pages is compared byte for byte against a local read of the same
 * address on the owning node after the measured phase.
 */

#include <utility>

#include "bench.hh"
#include "sim/random.hh"

namespace perfbench {

using namespace bluedbm;
using flash::PageBuffer;

namespace {

constexpr unsigned kTargets = 3;
constexpr unsigned kLinksPerRemote = 2;
constexpr unsigned kOutstanding = 512;
/** One page in this many is re-read locally and compared. */
constexpr std::uint64_t kSampleEvery = 64;

class FabricScan final : public Workload
{
  public:
    FabricScan(std::uint64_t seed, std::uint64_t ops, bool traced)
        : seed_(seed), measureOps_(ops), traced_(traced)
    {
    }

    void
    setup(RoundResult &r) override
    {
        r_ = &r;
        sim_ = std::make_unique<sim::Simulator>();
        core::ClusterParams cp;
        net::Topology t;
        t.nodes = kTargets;
        for (unsigned rm = 0; rm + 1 < kTargets; ++rm) {
            for (unsigned l = 0; l < kLinksPerRemote; ++l) {
                net::LinkSpec spec;
                spec.nodeA = 0;
                spec.portA = std::uint8_t(rm * kLinksPerRemote + l);
                spec.nodeB = net::NodeId(1 + rm);
                spec.portB = std::uint8_t(l);
                t.links.push_back(spec);
            }
        }
        cp.topology = t;
        cp.node.seed = seed_;
        cluster_ = std::make_unique<core::Cluster>(*sim_, cp);
        geo_ = cluster_->params().node.geometry;
        rng_ = sim::Rng(kv::mix64(seed_ ^ 0xf13ull));
        // Warm-up: brings every pipe to its saturated steady state.
        runPhase(measureOps_ / 4);
        r.pageSize = geo_.pageSize;
        r.bytesPerOp = geo_.pageSize;
    }

    void
    measure(RoundResult &r) override
    {
        if (traced_) {
            sim::Tracer::Params tp;
            tp.enabled = true;
            tp.sampleEvery = 16;
            tp.maxRetained = std::size_t(measureOps_);
            sim_->tracer().configure(tp);
        }
        measuring_ = true;
        LayerCounts before = snapshotLayers(*sim_, *cluster_, nullptr);
        Tick start = sim_->now();
        runPhase(measureOps_);
        r.steadyOps = steadyOps_;
        r.steadySpan = lastIssue_ - start;
        r.layers.addDelta(snapshotLayers(*sim_, *cluster_, nullptr),
                          before);
        measuring_ = false;
        r.ops = measureOps_;
        r.eventPoolSlots = sim_->eventPoolSlots();
    }

    void
    verify(RoundResult &r) override
    {
        if (traced_)
            analyzeTraces(sim_->tracer(), r);
        std::uint64_t compared = 0;
        for (auto &s : samples_) {
            cluster_->node(s.target).ispReadLocal(
                s.card, s.addr, [&, &s = s](PageBuffer local) {
                ++compared;
                if (local != s.data) {
                    ++r.failed;
                    r.fail("remote page differs from a local read of "
                           "the same address");
                }
            });
        }
        sim_->run();
        if (compared != samples_.size())
            r.fail("local re-reads did not finish");
    }

  private:
    struct Sample
    {
        net::NodeId target = 0;
        unsigned card = 0;
        flash::Address addr;
        PageBuffer data;
    };

    void
    runPhase(std::uint64_t pages)
    {
        quota_ = pages;
        issued_ = 0;
        completed_ = 0;
        for (unsigned w = 0; w < kOutstanding; ++w)
            for (unsigned tgt = 0; tgt < kTargets; ++tgt)
                issue(net::NodeId(tgt));
        sim_->run();
        if (completed_ != pages)
            r_->fail("fabric scan stalled at " +
                     std::to_string(completed_) + " of " +
                     std::to_string(pages) + " pages");
    }

    void
    issue(net::NodeId target)
    {
        if (issued_ >= quota_)
            return;
        std::uint64_t index = issued_++;
        if (issued_ == quota_ && measuring_) {
            lastIssue_ = sim_->now();
            steadyOps_ = completed_;
        }
        flash::Address addr = flash::Address::fromLinear(
            geo_, rng_.below(geo_.pages()));
        unsigned card = unsigned(rng_.below(2));
        bool sample = measuring_ && rng_.below(kSampleEvery) == 0;
        Tick start = sim_->now();
        std::uint64_t root = sim_->tracer().beginTrace("isp.read", start,
                                                       index);
        cluster_->node(0).ispReadRemote(
            target, card, addr,
            [this, target, card, addr, sample, start, index,
             root](PageBuffer data) {
            Tick now = sim_->now();
            sim_->tracer().endTrace(root, now);
            ++completed_;
            if (data.size() != geo_.pageSize) {
                if (measuring_)
                    ++r_->failed;
                r_->fail("page of " + std::to_string(data.size()) +
                         " bytes, expected " +
                         std::to_string(geo_.pageSize));
            }
            if (measuring_) {
                r_->lat.push_back(now - start);
                if (traced_)
                    r_->opLog.push_back({index, start, now});
                if (sample)
                    samples_.push_back(
                        {target, card, addr, std::move(data)});
            }
            issue(target);
        });
    }

    std::uint64_t seed_;
    std::uint64_t measureOps_;
    bool traced_;
    RoundResult *r_ = nullptr;

    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<core::Cluster> cluster_;
    flash::Geometry geo_;
    sim::Rng rng_;
    std::vector<Sample> samples_;
    std::uint64_t quota_ = 0, issued_ = 0, completed_ = 0;
    bool measuring_ = false;
    Tick lastIssue_ = 0;
    std::uint64_t steadyOps_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFabricScan(std::uint64_t seed, std::uint64_t ops, bool traced)
{
    return std::make_unique<FabricScan>(seed, ops ? ops : 30000,
                                        traced);
}

} // namespace perfbench
