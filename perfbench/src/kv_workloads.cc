/**
 * @file
 * The KV workloads, kv_zipf_get and kv_uniform_put, driven through
 * kv::KvService by the benchmark's own verifying closed-loop client.
 *
 * Values encode (key, version). The client numbers every put of a key
 * in issue order and checks each get against the read-your-writes
 * contract of kv_types.hh: the version returned was issued before the
 * get completed, and it is not older than the newest put acked before
 * the get was issued. "Older" is real-time precedence: a put that was
 * acked before that newest put was even issued. Two puts that overlap
 * in time may be stamped by the router in either order (one can wait
 * in its client's admission queue), so either may win. A get that
 * returns NotFound for a preloaded key, Error, Overloaded, or bytes
 * that are not exactly the encoding of (key, version) is a failed op.
 */

#include <algorithm>
#include <cstring>
#include <utility>

#include "bench.hh"
#include "kv/kv_service.hh"
#include "sim/random.hh"
#include "workload/key_dist.hh"

namespace perfbench {

using namespace bluedbm;
using flash::PageBuffer;
using kv::Key;
using kv::KvStatus;

namespace {

constexpr std::uint64_t kKeys = 10000;
constexpr std::uint32_t kValueBytes = 256;
constexpr unsigned kClientsPerNode = 8;
constexpr unsigned kPipeline = 4;
constexpr unsigned kPreloadWindow = 64;

struct KvShape
{
    unsigned nodes = 0;
    bool zipfian = false;
    double putFrac = 0.0;
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
};

/** 1 GB card (8 buses x 2 chips x 128 blocks x 64 pages of 8 KB),
 * the svc_kv serving geometry: the cleaner stays idle. */
flash::Geometry
kvGeometry()
{
    flash::Geometry g;
    g.buses = 8;
    g.chipsPerBus = 2;
    g.blocksPerChip = 128;
    g.pagesPerBlock = 64;
    g.pageSize = 8192;
    return g;
}

PageBuffer
encodeValue(Key key, std::uint64_t version)
{
    PageBuffer v(kValueBytes);
    std::memcpy(v.data(), &key, 8);
    std::memcpy(v.data() + 8, &version, 8);
    std::uint64_t h = kv::mix64(key * 0x9e3779b97f4a7c15ull ^ version);
    for (std::uint32_t i = 16; i < kValueBytes; ++i)
        v[i] = std::uint8_t((h >> ((i % 8) * 8)) ^ i);
    return v;
}

class KvWorkload final : public Workload
{
  public:
    KvWorkload(const KvShape &shape, std::uint64_t seed, bool traced)
        : shape_(shape), seed_(seed), traced_(traced)
    {
    }

    void
    setup(RoundResult &r) override
    {
        r_ = &r;
        sim_ = std::make_unique<sim::Simulator>();
        core::ClusterParams cp;
        cp.topology = net::Topology::ring(shape_.nodes, 4);
        cp.node.geometry = kvGeometry();
        cp.node.timing = flash::Timing{};
        cp.node.cards = 2;
        cp.node.controllerTags = 128;
        cp.node.seed = seed_;
        cp.network.endpoints = kv::kvRequiredEndpoints;
        cluster_ = std::make_unique<core::Cluster>(*sim_, cp);

        kv::KvParams kp;
        kp.replication = 2;
        kp.writeQuorum = 1;
        kp.cacheSlots = 256;
        router_ = std::make_unique<kv::KvRouter>(*sim_, *cluster_, kp);
        service_ = std::make_unique<kv::KvService>(*sim_, *router_);

        // The seed picks which keys are hot (rank -> key permutation)
        // and every client's key and op stream.
        sim::Rng rng(kv::mix64(seed_));
        perm_.resize(kKeys);
        for (Key k = 0; k < kKeys; ++k)
            perm_[k] = k;
        for (std::uint64_t i = kKeys - 1; i > 0; --i)
            std::swap(perm_[i], perm_[rng.below(i + 1)]);

        std::unique_ptr<workload::ZipfianKeys> proto;
        if (shape_.zipfian)
            proto = std::make_unique<workload::ZipfianKeys>(kKeys, 0.99,
                                                            seed_);
        kv::KvService::ClientParams params;
        params.window = 8;
        params.queueCap = 1024;
        unsigned total = shape_.nodes * kClientsPerNode;
        clients_.resize(total);
        for (unsigned i = 0; i < total; ++i) {
            Client &c = clients_[i];
            c.id = service_->addClient(net::NodeId(i % shape_.nodes),
                                       params);
            std::uint64_t cseed = kv::mix64(seed_ ^ (i + 1) *
                                            0xbf58476d1ce4e5b9ull);
            c.rng = sim::Rng(cseed);
            if (proto) {
                c.zipf = std::make_unique<workload::ZipfianKeys>(*proto);
                c.zipf->reseed(cseed ^ 0x5bf036350c488d15ull);
            } else {
                c.uniform = std::make_unique<workload::UniformKeys>(
                    kKeys, cseed ^ 0x5bf036350c488d15ull);
            }
        }

        preload();
        // Warm-up: fills the hot-key caches and their admission
        // sketches before anything is measured.
        runPhase(shape_.warmupOps);
        r.pageSize = cp.node.geometry.pageSize;
        r.bytesPerOp = kValueBytes;
    }

    void
    measure(RoundResult &r) override
    {
        if (traced_) {
            sim::Tracer::Params tp;
            tp.enabled = true;
            tp.sampleEvery = 16;
            tp.maxRetained = std::size_t(shape_.measureOps);
            sim_->tracer().configure(tp);
        }
        measuring_ = true;
        LayerCounts before = snapshotLayers(*sim_, *cluster_, router_.get());
        Tick start = sim_->now();
        runPhase(shape_.measureOps);
        r.steadyOps = steadyOps_;
        r.steadySpan = lastIssue_ - start;
        r.layers.addDelta(snapshotLayers(*sim_, *cluster_, router_.get()),
                          before);
        measuring_ = false;
        r.ops = shape_.measureOps;
        r.eventPoolSlots = sim_->eventPoolSlots();
    }

    void
    verify(RoundResult &r) override
    {
        if (traced_)
            analyzeTraces(sim_->tracer(), r);
        // Anti-entropy sweep: fault-free traffic must leave every
        // replica pair convergent.
        bool swept = false;
        router_->repairSweep([&]() { swept = true; });
        sim_->run();
        if (!swept)
            r.fail("anti-entropy sweep did not finish");
        else if (router_->divergentWrites() != 0)
            r.fail(std::to_string(router_->divergentWrites()) +
                   " divergent keys after the anti-entropy sweep");
    }

  private:
    struct Client
    {
        kv::KvService::ClientId id = 0;
        sim::Rng rng;
        std::unique_ptr<workload::ZipfianKeys> zipf;
        std::unique_ptr<workload::UniformKeys> uniform;
    };

    void
    preload()
    {
        versions_.assign(kKeys, {Version{0, 0}});
        ackedVer_.assign(kKeys, 1);
        std::uint64_t next = 0, done = 0;
        std::function<void()> pump = [&]() {
            while (next < kKeys && next - done < kPreloadWindow) {
                Key key = next++;
                router_->put(net::NodeId(key % shape_.nodes), key,
                             encodeValue(key, 1),
                             [&, key](KvStatus st) {
                    if (st != KvStatus::Ok) {
                        r_->fail("preload put of key " +
                                 std::to_string(key) + " failed");
                    }
                    ++done;
                    pump();
                });
            }
        };
        pump();
        sim_->run();
        if (done != kKeys)
            r_->fail("preload did not finish");
    }

    /** Run @p ops closed-loop operations to completion. */
    void
    runPhase(std::uint64_t ops)
    {
        quota_ = ops;
        issued_ = 0;
        completed_ = 0;
        for (unsigned p = 0; p < kPipeline; ++p)
            for (std::size_t ci = 0; ci < clients_.size(); ++ci)
                issue(ci);
        sim_->run();
        if (completed_ != ops)
            r_->fail("closed loop stalled at " +
                     std::to_string(completed_) + " of " +
                     std::to_string(ops) + " ops");
    }

    void
    issue(std::size_t ci)
    {
        if (issued_ >= quota_)
            return;
        if (++issued_ == quota_ && measuring_) {
            lastIssue_ = sim_->now();
            steadyOps_ = completed_;
        }
        Client &c = clients_[ci];
        Key key = perm_[c.zipf ? c.zipf->next() : c.uniform->next()];
        Tick start = sim_->now();
        if (shape_.putFrac > 0.0 && c.rng.uniform() < shape_.putFrac) {
            versions_[key].push_back({++seq_, kNever});
            std::uint64_t ver = versions_[key].size();
            service_->put(c.id, key, encodeValue(key, ver),
                          [this, ci, key, ver, start](KvStatus st) {
                if (st == KvStatus::Ok) {
                    versions_[key][ver - 1].acked = ++seq_;
                    ackedVer_[key] = std::max(ackedVer_[key], ver);
                    if (measuring_) {
                        ++r_->putsAcked;
                        r_->userBytesPut += kValueBytes;
                    }
                } else {
                    opFailed("put", key, st);
                }
                finished(ci, key, start, true);
            });
            return;
        }
        std::uint64_t floor = ackedVer_[key];
        service_->get(c.id, key,
                      [this, ci, key, floor, start](PageBuffer v,
                                                    KvStatus st) {
            if (st != KvStatus::Ok)
                opFailed("get", key, st);
            else
                checkValue(key, floor, v);
            finished(ci, key, start, false);
        });
    }

    void
    checkValue(Key key, std::uint64_t floor, const PageBuffer &v)
    {
        std::uint64_t ver = 0;
        if (v.size() == kValueBytes)
            std::memcpy(&ver, v.data() + 8, 8);
        if (v.size() != kValueBytes || v != encodeValue(key, ver)) {
            opFailed();
            r_->fail("get of key " + std::to_string(key) +
                     " returned wrong bytes");
        } else if (ver == 0 || ver > versions_[key].size() ||
                   (ver < floor && versions_[key][ver - 1].acked <
                                       versions_[key][floor - 1].issued)) {
            opFailed();
            r_->fail("get of key " + std::to_string(key) +
                     " returned version " + std::to_string(ver) +
                     " after version " + std::to_string(floor) +
                     " was acked (" +
                     std::to_string(versions_[key].size()) + " issued)");
        }
    }

    void
    opFailed(const char *op, Key key, KvStatus st)
    {
        opFailed();
        r_->fail(std::string(op) + " of key " + std::to_string(key) +
                 " returned status " + std::to_string(int(st)));
    }

    /** Count a failed op; warm-up failures fail the run's checks
     * but are not part of the measured op counts. */
    void
    opFailed()
    {
        if (measuring_)
            ++r_->failed;
    }

    void
    finished(std::size_t ci, Key key, Tick start, bool write)
    {
        Tick now = sim_->now();
        ++completed_;
        if (measuring_) {
            r_->lat.push_back(now - start);
            if (write)
                r_->writeLat.push_back(now - start);
            if (traced_)
                r_->opLog.push_back({key, start, now});
        }
        issue(ci);
    }

    KvShape shape_;
    std::uint64_t seed_;
    bool traced_;
    RoundResult *r_ = nullptr;

    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<core::Cluster> cluster_;
    std::unique_ptr<kv::KvRouter> router_;
    std::unique_ptr<kv::KvService> service_;

    std::vector<Key> perm_;
    std::vector<Client> clients_;
    /** One put of a key: client sequence numbers of its issue and
     * its ack (kNever while unacked). */
    struct Version
    {
        std::uint64_t issued = 0;
        std::uint64_t acked = 0;
    };
    static constexpr std::uint64_t kNever = ~std::uint64_t(0);
    std::vector<std::vector<Version>> versions_; //!< [key][version-1]
    std::vector<std::uint64_t> ackedVer_; //!< newest acked version
    std::uint64_t seq_ = 0;
    std::uint64_t quota_ = 0, issued_ = 0, completed_ = 0;
    bool measuring_ = false;
    Tick lastIssue_ = 0;
    std::uint64_t steadyOps_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeKvWorkload(const std::string &name, std::uint64_t seed,
               std::uint64_t ops, bool traced)
{
    KvShape s;
    if (name == "kv_zipf_get") {
        s.nodes = 20;
        s.zipfian = true;
        s.putFrac = 0.0;
        s.warmupOps = 20000;
        s.measureOps = 50000;
    } else if (name == "kv_uniform_put") {
        s.nodes = 8;
        s.zipfian = false;
        s.putFrac = 0.5;
        s.warmupOps = 5000;
        s.measureOps = 25000;
    } else {
        return nullptr;
    }
    if (ops != 0)
        s.measureOps = ops;
    return std::make_unique<KvWorkload>(s, seed, traced);
}

} // namespace perfbench
