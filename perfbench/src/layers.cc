/**
 * @file
 * Per-layer accounting from outside the simulator: counter snapshots
 * summed over a cluster, the derived per-op metrics, and the span-tree
 * analysis of traced rounds.
 */

#include <algorithm>
#include <string_view>
#include <tuple>

#include "bench.hh"

namespace perfbench {

using namespace bluedbm;

const std::vector<std::string> kSpanNames = {
    "kv.get",  "kv.put",      "isp.read",  "svc.queue", "route",
    "net.req", "net.resp",    "shard.get", "shard.put", "fs.read",
    "fs.append", "flash.queue", "flash.op", "nand.read", "nand.write",
    "nand.erase",
};

void
RoundResult::fail(const std::string &why)
{
    ++checksFailed;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
RoundResult::absorb(const RoundResult &o)
{
    ops += o.ops;
    failed += o.failed;
    lat.insert(lat.end(), o.lat.begin(), o.lat.end());
    writeLat.insert(writeLat.end(), o.writeLat.begin(), o.writeLat.end());
    steadyOps += o.steadyOps;
    steadySpan += o.steadySpan;
    putsAcked += o.putsAcked;
    userBytesPut += o.userBytesPut;
    bytesPerOp = o.bytesPerOp;
    pageSize = o.pageSize;
    eventPoolSlots = std::max(eventPoolSlots, o.eventPoolSlots);
    layers.add(o.layers);
    for (const auto &[name, ticks] : o.selfTicks)
        selfTicks[name] += ticks;
    tracesChecked += o.tracesChecked;
    tracesBad += o.tracesBad;
}

void
LayerCounts::add(const LayerCounts &o)
{
    events += o.events;
    msgs += o.msgs;
    laneBytes += o.laneBytes;
    nandRead += o.nandRead;
    nandWritten += o.nandWritten;
    blocksErased += o.blocksErased;
    suspendedPrograms += o.suspendedPrograms;
    fsPagesWritten += o.fsPagesWritten;
    fsPagesCleaned += o.fsPagesCleaned;
    shardPuts += o.shardPuts;
    shardGets += o.shardGets;
    coalescedGets += o.coalescedGets;
    cacheLookups += o.cacheLookups;
    cacheHits += o.cacheHits;
    remoteOps += o.remoteOps;
    localOps += o.localOps;
    admission.merge(o.admission);
    net.merge(o.net);
    shard.merge(o.shard);
    flashQueue.merge(o.flashQueue);
    nand.merge(o.nand);
}

void
LayerCounts::addDelta(const LayerCounts &after, const LayerCounts &before)
{
    LayerCounts d = after;
    d.events -= before.events;
    d.msgs -= before.msgs;
    d.laneBytes -= before.laneBytes;
    d.nandRead -= before.nandRead;
    d.nandWritten -= before.nandWritten;
    d.blocksErased -= before.blocksErased;
    d.suspendedPrograms -= before.suspendedPrograms;
    d.fsPagesWritten -= before.fsPagesWritten;
    d.fsPagesCleaned -= before.fsPagesCleaned;
    d.shardPuts -= before.shardPuts;
    d.shardGets -= before.shardGets;
    d.coalescedGets -= before.coalescedGets;
    d.cacheLookups -= before.cacheLookups;
    d.cacheHits -= before.cacheHits;
    d.remoteOps -= before.remoteOps;
    d.localOps -= before.localOps;
    d.admission.subtract(before.admission);
    d.net.subtract(before.net);
    d.shard.subtract(before.shard);
    d.flashQueue.subtract(before.flashQueue);
    d.nand.subtract(before.nand);
    add(d);
}

LayerCounts
snapshotLayers(sim::Simulator &sim, core::Cluster &cluster,
               kv::KvRouter *router)
{
    LayerCounts c;
    c.events = sim.eventsExecuted();
    net::StorageNetwork &net = cluster.network();
    c.laneBytes = net.totalLaneBytes();
    unsigned endpoints = cluster.params().network.endpoints;
    for (unsigned n = 0; n < cluster.size(); ++n) {
        core::Node &node = cluster.node(n);
        for (unsigned e = 1; e < endpoints; ++e)
            c.msgs += net.endpoint(net::NodeId(n),
                                   net::EndpointId(e)).sent();
        for (unsigned k = 0; k < node.cardCount(); ++k) {
            const flash::NandArray &nand = node.card(k).nand();
            c.nandRead += nand.pagesRead();
            c.nandWritten += nand.pagesWritten();
            c.blocksErased += nand.blocksErased();
            c.suspendedPrograms += nand.suspendedPrograms();
        }
        c.fsPagesWritten += node.fs().pagesWritten();
        c.fsPagesCleaned += node.fs().pagesCleaned();
        if (router) {
            kv::KvShard &shard = router->shard(net::NodeId(n));
            c.shardPuts += shard.puts();
            c.shardGets += shard.gets();
            c.coalescedGets += shard.coalescedGets();
            if (const kv::KvCache *cache =
                    router->cache(net::NodeId(n))) {
                c.cacheLookups += cache->lookups();
                c.cacheHits += cache->hits();
            }
        }
    }
    if (router) {
        c.remoteOps = router->remoteOps();
        c.localOps = router->localOps();
    }
    sim::MetricsRegistry &m = sim.metrics();
    c.admission = m.histogram("kv.stage.admission");
    c.net = m.histogram("kv.stage.net");
    c.shard = m.histogram("kv.stage.shard");
    c.flashQueue = m.histogram("kv.stage.flash_queue",
                               {{"class", "read"}});
    c.nand = m.histogram("kv.stage.nand", {{"class", "read"}});
    return c;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
stage(std::map<std::string, double> &out, const std::string &name,
      const sim::LatencyHistogram &h)
{
    out[name + ".mean_us"] = h.mean() / double(sim::oneUs);
    out[name + ".p99_us"] = sim::ticksToUs(h.p99());
}

} // namespace

std::map<std::string, double>
layerMetrics(const RoundResult &r)
{
    const LayerCounts &d = r.layers;
    double ops = double(r.ops);
    auto per_op = [&](std::uint64_t x) { return ratio(double(x), ops); };
    std::map<std::string, double> m;
    m["sim.events_per_op"] = per_op(d.events);
    m["sim.event_pool_slots"] = double(r.eventPoolSlots);
    m["net.msgs_per_op"] = per_op(d.msgs);
    m["net.lane_bytes_per_op"] = per_op(d.laneBytes);
    stage(m, "kv.stage.net", d.net);
    m["flash.pages_read_per_op"] = per_op(d.nandRead);
    m["flash.pages_written_per_op"] = per_op(d.nandWritten);
    m["flash.blocks_erased_per_op"] = per_op(d.blocksErased);
    m["flash.suspended_programs_per_op"] = per_op(d.suspendedPrograms);
    stage(m, "kv.stage.flash_queue", d.flashQueue);
    stage(m, "kv.stage.nand", d.nand);
    m["fs.pages_written_per_op"] = per_op(d.fsPagesWritten);
    m["fs.puts_per_page"] =
        ratio(double(d.shardPuts), double(d.fsPagesWritten));
    m["fs.write_amp"] = ratio(double(d.nandWritten) * r.pageSize,
                              double(r.userBytesPut));
    m["fs.pages_cleaned_per_op"] = per_op(d.fsPagesCleaned);
    m["kv.cache.hit_ratio"] =
        ratio(double(d.cacheHits), double(d.cacheLookups));
    m["kv.coalesced_ratio"] =
        ratio(double(d.coalescedGets), double(d.shardGets));
    m["kv.remote_frac"] = ratio(double(d.remoteOps),
                                double(d.remoteOps + d.localOps));
    stage(m, "kv.stage.admission", d.admission);
    stage(m, "kv.stage.shard", d.shard);
    return m;
}

void
analyzeTraces(const sim::Tracer &tracer, RoundResult &r)
{
    // Client ops keyed by (key, start, end); a trace root must match
    // one of them exactly.
    std::vector<std::tuple<std::uint64_t, Tick, Tick>> ops;
    ops.reserve(r.opLog.size());
    for (const OpRecord &o : r.opLog)
        ops.emplace_back(o.key, o.start, o.end);
    std::sort(ops.begin(), ops.end());

    for (const sim::Tracer::Trace &t : tracer.retained()) {
        ++r.tracesChecked;
        const auto &spans = t.spans;
        bool ok = !spans.empty();
        for (std::size_t i = 0; ok && i < spans.size(); ++i) {
            const auto &s = spans[i];
            if (s.end < s.begin || (i > 0 && s.end == 0)) {
                ok = false;
            } else if (i > 0) {
                if (s.parent >= spans.size()) {
                    ok = false;
                } else {
                    const auto &p = spans[s.parent];
                    ok = s.begin >= p.begin && s.end <= p.end;
                }
            }
        }
        Tick e2e = ok ? spans[0].end - spans[0].begin : 0;
        if (ok)
            ok = std::binary_search(
                ops.begin(), ops.end(),
                std::make_tuple(t.key, spans[0].begin, spans[0].end));

        // Self time: each instant of the root interval belongs to the
        // deepest span open over it; equally deep overlapping
        // siblings (parallel replica writes) yield to the one that
        // ends last, the op's critical path. On a tree without
        // overlapping siblings this is duration minus the union of
        // the children.
        std::map<std::string, double> self;
        Tick sum = 0;
        if (ok) {
            std::vector<Tick> cuts;
            std::vector<unsigned> depth(spans.size());
            for (std::size_t i = 0; i < spans.size(); ++i) {
                cuts.push_back(spans[i].begin);
                cuts.push_back(spans[i].end);
                depth[i] = sim::Tracer::depthOf(t, std::uint32_t(i));
            }
            std::sort(cuts.begin(), cuts.end());
            cuts.erase(std::unique(cuts.begin(), cuts.end()),
                       cuts.end());
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                Tick lo = cuts[c], hi = cuts[c + 1];
                std::size_t best = spans.size();
                for (std::size_t i = 0; i < spans.size(); ++i) {
                    const auto &s = spans[i];
                    if (s.begin > lo || s.end < hi)
                        continue;
                    if (best == spans.size() || depth[i] > depth[best] ||
                        (depth[i] == depth[best] &&
                         s.end > spans[best].end))
                        best = i;
                }
                if (best == spans.size())
                    continue;
                self[spans[best].name] += double(hi - lo);
                sum += hi - lo;
            }
            ok = sum == e2e;
        }
        if (!ok) {
            ++r.tracesBad;
            r.fail("trace " + std::to_string(t.serial) + " (" +
                   (spans.empty() ? "" : spans[0].name) +
                   ") does not telescope to its client-measured "
                   "latency");
            continue;
        }
        for (const auto &[name, ticks] : self)
            r.selfTicks[name] += ticks;
    }
}

} // namespace perfbench
