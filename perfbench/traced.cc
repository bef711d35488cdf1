/**
 * @file
 * The traced runs: per-layer metrics from spans recorded around the
 * public calls of each module.
 *
 * Each cell of a workload's request is replayed through the layer
 * calls directly — wl::makeWorkload, the wl::Emulator or
 * wl::traceCache().get, the core::Pipeline constructor, run(warmup),
 * resetStats, run(measure) — on a pool of `jobs` threads, alternating
 * with untraced sim::runMatrix passes of the same request; the
 * difference is the tracing overhead. The branch and address streams
 * the cells consumed are then fed on their own through
 * pred::BranchUnit and mem::MemoryHierarchy, and the result-cache,
 * dump and client layers are timed around their own calls.
 *
 * A layer a workload does not use reports 0 (fig4-live has no trace,
 * result-cache or serve work; replay-sweep runs no RSEP arm and no
 * emulator).
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "core/spec_engine.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "pred/branch_unit.hh"
#include "rsep/fifo_history.hh"
#include "sim/result_cache.hh"
#include "sim/thread_pool.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"
#include "workloads.hh"

namespace perfbench
{

namespace sim = rsep::sim;
namespace wl = rsep::wl;
namespace core = rsep::core;

namespace
{

/** What the layer calls of one cell measured. */
struct CellLedger
{
    std::string bench;
    std::string arm;
    u32 phase = 0;
    bool rsep = false;      ///< the equality predictor is on.
    double cellMs = 0;      ///< the whole cell.
    double ctorMs = 0;      ///< core::Pipeline constructor.
    double runMs = 0;       ///< run(warmup) + run(measure).
    double traceGetMs = 0;  ///< wl::traceCache().get (replay only).
    bool replay = false;
    bool decodeHit = false;
    u64 insts = 0;          ///< warmup + measure.
    u64 cycles = 0;         ///< simulated cycles of the measure window.
    u64 compares = 0;       ///< FIFO history comparisons.
    u64 condMispredicts = 0;
    u64 consumed = 0;       ///< records the pipeline pulled.
};

/** A request replayed through the layer calls. */
struct Traced
{
    std::vector<sim::MatrixRow> rows; ///< same layout as runMatrix.
    std::vector<CellLedger> cells;
    double wallMs = 0;
};

void
tracedCell(Ledger &L, const sim::SimConfig &cfg, const std::string &bench,
           u32 phase, const std::string &replay_dir, u64 rid,
           sim::PhaseResult &pr, CellLedger &cl)
{
    Scope cell(L, "sim.cell", -1, rid);
    cl.bench = bench;
    cl.arm = cfg.label;
    cl.phase = phase;
    cl.rsep = cfg.mech.equalityPred;
    cl.replay = !replay_dir.empty();

    std::optional<wl::Workload> w;
    {
        Scope s(L, "wl.make_workload", cell.id, rid);
        w.emplace(wl::makeWorkload(bench));
    }
    std::unique_ptr<wl::Emulator> emu;
    std::unique_ptr<wl::ReplayTraceSource> replay;
    wl::TraceSource *src = nullptr;
    if (cl.replay) {
        std::string path = wl::tracePath(replay_dir, bench, phase);
        Scope s(L, "wl.trace_get", cell.id, rid);
        wl::DecodedTraceCache::Result got = wl::traceCache().get(path);
        cl.traceGetMs = s.close();
        if (!got.ok())
            rsep_fatal("perfbench: %s", got.error.c_str());
        cl.decodeHit = got.hit;
        replay = std::make_unique<wl::ReplayTraceSource>(got.trace,
                                                         w->program, path);
        src = replay.get();
    } else {
        Scope s(L, "wl.emulator_init", cell.id, rid);
        emu = std::make_unique<wl::Emulator>(w->program);
        emu->resetArchState();
        w->init(*emu, phase);
        src = emu.get();
    }

    std::unique_ptr<core::Pipeline> pipe;
    {
        // The per-cell pipeline seed of sim::runPhase; the traced dump
        // is checked against the reference, so a drift shows.
        Scope s(L, "core.pipeline_ctor", cell.id, rid);
        pipe = std::make_unique<core::Pipeline>(
            cfg.core, cfg.mech, *src, cfg.seed ^ (0x9e37 * (phase + 1)));
        cl.ctorMs = s.close();
    }
    {
        Scope s(L, "core.run_warmup", cell.id, rid);
        pipe->run(cfg.warmupInsts);
        cl.runMs += s.close();
    }
    {
        Scope s(L, "core.reset_stats", cell.id, rid);
        pipe->resetStats();
    }
    {
        Scope s(L, "core.run_measure", cell.id, rid);
        pipe->run(cfg.measureInsts);
        cl.runMs += s.close();
    }

    pr.stats = pipe->stats();
    pr.ipc = pr.stats.ipc();
    for (const core::SpeculationEngine *eng : pipe->engines())
        for (const auto &entry : eng->statEntries())
            pr.engineStats.emplace_back("engine." + eng->name() + "." +
                                            entry.name,
                                        entry.counter->value());
    cl.insts = cfg.warmupInsts + cfg.measureInsts;
    cl.cycles = pr.stats.cycles.value();
    cl.compares = pipe->fifoHistory().comparisons.value();
    cl.condMispredicts = pipe->branchUnit().condMispredicts.value();
    cl.consumed = cl.replay ? replay->consumed() : emu->instCount();
    cl.cellMs = cell.close();
}

Traced
runTraced(Ledger &L, const Request &req, u64 rid)
{
    std::vector<sim::SimConfig> configs = configsOf(req.scenarios);
    Traced t;
    t.rows.resize(req.benchmarks.size());
    size_t ncells = 0;
    for (size_t b = 0; b < req.benchmarks.size(); ++b) {
        t.rows[b].benchmark = req.benchmarks[b];
        t.rows[b].byConfig.resize(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
            sim::RunResult &rr = t.rows[b].byConfig[c];
            rr.benchmark = req.benchmarks[b];
            rr.configLabel = configs[c].label;
            rr.phases.resize(configs[c].checkpoints);
            ncells += configs[c].checkpoints;
        }
    }
    t.cells.resize(ncells);

    auto t0 = Clock::now();
    {
        sim::ThreadPool pool(jobs);
        size_t i = 0;
        for (size_t b = 0; b < req.benchmarks.size(); ++b)
            for (size_t c = 0; c < configs.size(); ++c)
                for (u32 p = 0; p < configs[c].checkpoints; ++p, ++i)
                    pool.submit([&, b, c, p, i] {
                        tracedCell(L, configs[c], req.benchmarks[b], p,
                                   req.replayDir, rid,
                                   t.rows[b].byConfig[c].phases[p],
                                   t.cells[i]);
                    });
        pool.wait();
    }
    t.wallMs = msSince(t0);
    return t;
}

/** The standalone feeds of one committed-path stream. */
struct Probe
{
    double emulateMs = 0;
    u64 emulated = 0;
    double branchMs = 0;
    u64 branches = 0;
    double memMs = 0;
    u64 accesses = 0;
    u64 sink = 0; ///< folds returned latencies so no call is dropped.

    void
    add(const Probe &o)
    {
        emulateMs += o.emulateMs;
        emulated += o.emulated;
        branchMs += o.branchMs;
        branches += o.branches;
        memMs += o.memMs;
        accesses += o.accesses;
        sink += o.sink;
    }
};

/**
 * Re-create the first @p n records of a cell's stream (live: through a
 * fresh emulator, timed; replay: from the decoded trace) and feed them
 * through the branch unit and the memory hierarchy on their own.
 */
Probe
probeStream(Ledger &L, const std::string &bench, u32 phase, u64 n,
            const std::string &replay_dir, u64 rid)
{
    Probe pb;
    wl::Workload w = wl::makeWorkload(bench);
    std::vector<wl::DynRecord> recs(n);
    if (replay_dir.empty()) {
        wl::Emulator emu(w.program);
        emu.resetArchState();
        w.init(emu, phase);
        Scope s(L, "wl.emulate_probe", -1, rid);
        for (u64 i = 0; i < n; ++i)
            recs[i] = emu.step();
        pb.emulateMs = s.close();
        pb.emulated = n;
    } else {
        std::string path = wl::tracePath(replay_dir, bench, phase);
        wl::DecodedTraceCache::Result got = wl::traceCache().get(path);
        if (!got.ok())
            rsep_fatal("perfbench: %s", got.error.c_str());
        wl::ReplayTraceSource src(got.trace, w.program, path);
        for (u64 i = 0; i < n; ++i)
            recs[i] = src.step();
    }

    rsep::pred::BranchUnit bru;
    {
        Scope s(L, "pred.branch_probe", -1, rid);
        for (const wl::DynRecord &r : recs) {
            const rsep::isa::StaticInst &si = w.program.at(r.staticIdx);
            if (!si.isBranch())
                continue;
            rsep::Addr pc = rsep::isa::Program::pcOf(r.staticIdx);
            rsep::Addr target = rsep::isa::Program::pcOf(r.nextIdx);
            rsep::pred::BranchPrediction bp =
                bru.onFetchBranch(pc, si, r.taken, target);
            bru.onCommitBranch(bp, pc, si, target);
            pb.sink += bp.predTaken;
            ++pb.branches;
        }
        pb.branchMs = s.close();
    }

    // A blocking in-order consumer: time advances to each access's
    // completion, so the hierarchy never tracks more fills in flight
    // than a core would have.
    rsep::mem::MemoryHierarchy hier;
    {
        Scope s(L, "mem.access_probe", -1, rid);
        rsep::Cycle now = 0;
        rsep::Addr last_line = ~rsep::Addr{0};
        for (const wl::DynRecord &r : recs) {
            const rsep::isa::StaticInst &si = w.program.at(r.staticIdx);
            rsep::Addr pc = rsep::isa::Program::pcOf(r.staticIdx);
            ++now;
            if ((pc >> rsep::mem::lineShift) != last_line) {
                last_line = pc >> rsep::mem::lineShift;
                now = std::max(now, hier.ifetch(pc, now));
                ++pb.accesses;
            }
            if (si.isLoad()) {
                now = std::max(now, hier.load(pc, r.effAddr, now));
                ++pb.accesses;
            } else if (si.isStore()) {
                hier.storeCommit(r.effAddr, now);
                ++pb.accesses;
            }
        }
        pb.sink += now;
        pb.memMs = s.close();
    }
    return pb;
}

/** Probe every distinct (benchmark, phase) stream of a traced request,
 *  as far as the hungriest arm consumed it. */
Probe
probeRequest(Ledger &L, const Traced &t, const std::string &replay_dir,
             u64 rid)
{
    std::map<std::pair<std::string, u32>, u64> need;
    for (const CellLedger &cl : t.cells) {
        u64 &n = need[{cl.bench, cl.phase}];
        n = std::max(n, cl.consumed);
    }
    Probe all;
    for (const auto &[key, n] : need)
        all.add(probeStream(L, key.first, key.second, n, replay_dir, rid));
    return all;
}

/** Metric-name spelling of an arm ("rsep+vpred" -> "rsep-vpred"). */
std::string
armMetric(std::string arm)
{
    std::replace(arm.begin(), arm.end(), '+', '-');
    return arm;
}

/** Work counts that repeat exactly unless simulated behaviour changed. */
struct Counts
{
    u64 cycles = 0, insts = 0, compares = 0, rsepInsts = 0;
    u64 condMispredicts = 0, decodeHits = 0, decodeMisses = 0;

    explicit Counts(const std::vector<CellLedger> &cells)
    {
        for (const CellLedger &cl : cells) {
            cycles += cl.cycles;
            insts += cl.insts;
            condMispredicts += cl.condMispredicts;
            if (cl.rsep) {
                compares += cl.compares;
                rsepInsts += cl.insts;
            }
            if (cl.replay)
                ++(cl.decodeHit ? decodeHits : decodeMisses);
        }
    }

    std::map<std::string, u64>
    named() const
    {
        return {{"cycles", cycles},
                {"insts", insts},
                {"history_compares", compares},
                {"rsep_insts", rsepInsts},
                {"cond_mispredicts", condMispredicts},
                {"trace_decode_hits", decodeHits},
                {"trace_decode_misses", decodeMisses}};
    }
};

/** Check (or, when making the reference, store) one work count. */
void
checkCount(Context &ctx, const std::string &workload, const std::string &name,
           u64 value, Report &rep)
{
    std::string key = ctx.sz.name + ".counts." + workload + "." + name;
    if (ctx.makeReference) {
        ctx.refs.set(key, std::to_string(value));
        return;
    }
    std::optional<std::string> ref = ctx.refs.get(key);
    if (!ref || *ref != std::to_string(value)) {
        std::fprintf(stderr,
                     "perfbench: simulated behaviour changed: %s is %llu, "
                     "reference %s\n",
                     key.c_str(), static_cast<unsigned long long>(value),
                     ref ? ref->c_str() : "(none)");
        rep.correct = false;
    }
}

void
checkCounts(Context &ctx, const std::string &workload, const Counts &c,
            Report &rep)
{
    for (const auto &[name, value] : c.named())
        checkCount(ctx, workload, name, value, rep);
}

/** Untraced and traced passes of one request, alternating. */
struct Pairs
{
    std::vector<double> untracedMs, tracedMs, poolIdle;
    std::vector<Traced> traced;
    std::set<u64> tracedIds;
};

/** One untraced and one traced pass of @p req; which goes first
 *  alternates with @p rid, so warm-up effects do not favour one side.
 *  @p before runs ahead of each pass. */
void
runPair(Ledger &L, const Request &req, u64 rid, Pairs &out,
        const std::function<void()> &before)
{
    auto untraced = [&] {
        before();
        auto t0 = Clock::now();
        std::vector<sim::MatrixRow> rows = runDirect(req);
        double ms = msSince(t0);
        double cell_ms = 0;
        for (const sim::MatrixRow &row : rows)
            for (const sim::RunResult &rr : row.byConfig)
                for (const sim::PhaseResult &ph : rr.phases)
                    cell_ms += ph.wallMicros / 1000.0;
        out.untracedMs.push_back(ms);
        out.poolIdle.push_back(1.0 - cell_ms / (jobs * ms));
    };
    auto traced = [&] {
        before();
        out.traced.push_back(runTraced(L, req, rid));
        out.tracedMs.push_back(out.traced.back().wallMs);
        out.tracedIds.insert(rid);
    };
    if (rid % 2) {
        untraced();
        traced();
    } else {
        traced();
        untraced();
    }
}

/** Every per-layer metric, in BENCHMARK.json order. Layers a workload
 *  does not use keep their zero. */
struct Layers
{
    double registryMs = 0;
    double emulateMinstPerS = 0;
    double traceDecodeMs = 0, traceDecodeHitRatio = 0;
    u64 traceDecodeHits = 0, traceDecodeMisses = 0;
    double pipelineCtorMs = 0;
    std::map<std::string, double> runNsPerInst;
    u64 simCycles = 0;
    double rsepHostShare = 0, historyComparesPerInst = 0;
    double branchNs = 0, condMpki = 0;
    double memAccessNs = 0;
    double poolIdleFrac = 0;
    double cacheLoadMs = 0, cacheStoreMs = 0, dumpMs = 0;
    double cacheHitRatio = 0;
    u64 cacheHits = 0, cacheMisses = 0;
    double serverMsP50 = 0, clientOverheadMsP50 = 0, queueWaitMsP90 = 0;
    u64 busyRejections = 0, clientRetries = 0;
    std::map<std::string, double> selfMs;
    double overheadFrac = 0;
    StealMeter steal; ///< from the start of the traced run.

    void report(Report &rep);
};

void
Layers::report(Report &rep)
{
    rep.add("wl.registry_ms", "ms", registryMs);
    rep.add("wl.emulate_minst_per_s", "Minst/s", emulateMinstPerS);
    rep.add("wl.trace_decode_ms", "ms", traceDecodeMs);
    rep.add("wl.trace_decode_hit_ratio", "ratio", traceDecodeHitRatio);
    rep.add("wl.trace_decode_hits", "count", double(traceDecodeHits));
    rep.add("wl.trace_decode_misses", "count", double(traceDecodeMisses));
    rep.add("core.pipeline_ctor_ms", "ms", pipelineCtorMs);
    for (const std::string &arm : fig4Arms()) {
        auto it = runNsPerInst.find(arm);
        rep.add("core.run_ns_per_inst." + armMetric(arm), "ns/inst",
                it == runNsPerInst.end() ? 0.0 : it->second);
    }
    rep.add("core.sim_cycles", "count", double(simCycles));
    rep.add("rsep.host_share", "ratio", rsepHostShare);
    rep.add("rsep.history_compares_per_inst", "count",
            historyComparesPerInst);
    rep.add("pred.branch_ns", "ns", branchNs);
    rep.add("pred.cond_mpki", "count", condMpki);
    rep.add("mem.access_ns", "ns", memAccessNs);
    rep.add("sim.pool_idle_frac", "ratio", poolIdleFrac);
    rep.add("sim.cache_load_ms", "ms", cacheLoadMs);
    rep.add("sim.cache_store_ms", "ms", cacheStoreMs);
    rep.add("sim.dump_ms", "ms", dumpMs);
    rep.add("sim.cache_hit_ratio", "ratio", cacheHitRatio);
    rep.add("sim.cache_hits", "count", double(cacheHits));
    rep.add("sim.cache_misses", "count", double(cacheMisses));
    rep.add("serve.server_ms_p50", "ms", serverMsP50);
    rep.add("serve.client_overhead_ms_p50", "ms", clientOverheadMsP50);
    rep.add("serve.queue_wait_ms_p90", "ms", queueWaitMsP90);
    rep.add("serve.busy_rejections", "count", double(busyRejections));
    rep.add("serve.client_retries", "count", double(clientRetries));
    for (const char *layer : {"wl", "core", "sim", "serve"}) {
        auto it = selfMs.find(layer);
        rep.add(std::string("self_ms.") + layer, "ms",
                it == selfMs.end() ? 0.0 : it->second);
    }
    rep.add("trace.overhead_frac", "ratio", overheadFrac);
    rep.add("host.steal_frac", "ratio", steal.lap());
}

/** Fill the cell-chain metrics from the traced passes. */
void
fromPairs(const Ledger &L, const Pairs &p, Layers &ly)
{
    std::map<std::string, std::pair<double, u64>> run; // arm -> ns, insts
    double ctor_ms = 0, all_ms = 0, rsep_ms = 0, get_ms = 0;
    u64 gets = 0, get_hits = 0, ncells = 0;
    for (const Traced &t : p.traced)
        for (const CellLedger &cl : t.cells) {
            run[cl.arm].first += cl.runMs * 1e6;
            run[cl.arm].second += cl.insts;
            ctor_ms += cl.ctorMs;
            all_ms += cl.cellMs;
            if (cl.rsep)
                rsep_ms += cl.cellMs;
            if (cl.replay) {
                get_ms += cl.traceGetMs;
                ++gets;
                get_hits += cl.decodeHit;
            }
            ++ncells;
        }
    double passes = static_cast<double>(p.traced.size());
    for (const auto &[arm, v] : run)
        ly.runNsPerInst[arm] = v.first / static_cast<double>(v.second);
    ly.pipelineCtorMs = ctor_ms / static_cast<double>(ncells);
    ly.rsepHostShare = rsep_ms / all_ms;
    ly.traceDecodeMs = get_ms / passes;
    ly.traceDecodeHitRatio = gets ? double(get_hits) / double(gets) : 0.0;

    Counts c(p.traced.back().cells);
    ly.simCycles = c.cycles;
    ly.traceDecodeHits = c.decodeHits;
    ly.traceDecodeMisses = c.decodeMisses;
    ly.historyComparesPerInst =
        c.rsepInsts ? double(c.compares) / double(c.rsepInsts) : 0.0;
    ly.condMpki = 1000.0 * double(c.condMispredicts) / double(c.insts);

    ly.poolIdleFrac = median(p.poolIdle);
    ly.overheadFrac = median(p.tracedMs) / median(p.untracedMs) - 1.0;
    for (const auto &[layer, ms] : L.selfMsByLayer(p.tracedIds))
        ly.selfMs[layer] = ms / passes;
}

void
fromProbe(const Probe &pb, Layers &ly)
{
    ly.emulateMinstPerS =
        pb.emulateMs > 0 ? double(pb.emulated) / (pb.emulateMs * 1000.0) : 0;
    ly.branchNs = pb.branches ? pb.branchMs * 1e6 / double(pb.branches) : 0;
    ly.memAccessNs =
        pb.accesses ? pb.memMs * 1e6 / double(pb.accesses) : 0;
}

/** Median time of the canonical stat dump of @p rows. */
double
dumpMs(Ledger &L, const Request &req, const std::vector<sim::MatrixRow> &rows,
       u64 rid)
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        Scope s(L, "sim.dump", -1, rid);
        canonicalDump(req, rows);
        ms.push_back(s.close());
    }
    return median(ms);
}

void
checkTracedDump(const Context &ctx, const std::string &kind, u64 seed,
                const Request &req, const Traced &t, Report &rep)
{
    if (!matchesReference(ctx, kind, seed,
                          digestOf(canonicalDump(req, t.rows))))
        rep.correct = false;
}

Report
finish(Context &ctx, const std::string &workload, Ledger &L, Layers &ly,
       Report rep)
{
    ly.report(rep);
    std::string path = ctx.opt.workDir + "/spans-" + workload + ".jsonl";
    if (!L.write(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return rep;
}

} // namespace

Report
traceFig4Live(Context &ctx)
{
    Ledger L;
    Report rep;
    Layers ly;
    setupFig4Live(ctx, &L);
    ly.registryMs = L.totalMs("wl.registry");

    Request canon = fig4Request(ctx.sz, canonicalSeed);
    Pairs p;
    for (u64 i = 0; i < 4; ++i)
        runPair(L, canon, 1 + i, p, [] {});
    for (const Traced &t : p.traced)
        checkTracedDump(ctx, "fig4", canonicalSeed, canon, t, rep);
    rep.attempted = p.traced.size();
    fromPairs(L, p, ly);
    checkCounts(ctx, "fig4-live", Counts(p.traced.back().cells), rep);
    fromProbe(probeRequest(L, p.traced.back(), "", 100), ly);
    ly.dumpMs = dumpMs(L, canon, p.traced.back().rows, 101);
    return finish(ctx, "fig4-live", L, ly, rep);
}

Report
traceReplaySweep(Context &ctx)
{
    Ledger L;
    Report rep;
    Layers ly;
    setupReplaySweep(ctx, 0, &L);
    ly.registryMs = L.totalMs("wl.registry");
    std::string traces = ctx.opt.workDir + "/" + tracesDir(0);

    Request canon = sweepRequest(ctx.sz, canonicalSeed, traces);
    Pairs p;
    for (u64 i = 0; i < 200; ++i)
        runPair(L, canon, 1 + i, p, [] { wl::traceCache().clear(); });
    for (const Traced &t : p.traced)
        checkTracedDump(ctx, "sweep", canonicalSeed, canon, t, rep);
    rep.attempted = p.traced.size();
    fromPairs(L, p, ly);
    checkCounts(ctx, "replay-sweep", Counts(p.traced.back().cells), rep);
    fromProbe(probeRequest(L, p.traced.back(), traces, 100), ly);
    ly.dumpMs = dumpMs(L, canon, p.traced.back().rows, 101);
    return finish(ctx, "replay-sweep", L, ly, rep);
}

Report
traceServeMixed(Context &ctx)
{
    const Sizing &sz = ctx.sz;
    Ledger L;
    Report rep;
    Layers ly;
    double setup_s = 0;
    std::unique_ptr<Daemon> d = setupServeMixed(ctx, 0, &setup_s, &L);
    ly.registryMs = L.totalMs("wl.registry");
    if (!warmServe(ctx, *d))
        rep.correct = false;

    // The client layer: the closed loop itself, one span per request.
    Timeline tl(ctx, segmentSeconds, Rank::Steal);
    ServeLoop loop = runServeLoop(ctx, *d, tracesDir(0), tl, &L);
    rep.correct = rep.correct && loop.correct;
    rep.attempted = loop.attempted;
    rep.failed = loop.failed;
    ly.serverMsP50 = percentile(loop.serverMs, 50);
    ly.clientOverheadMsP50 = percentile(loop.overheadMs, 50);
    ly.queueWaitMsP90 = percentile(loop.queueMs, 90);
    ly.clientRetries = loop.retries;
    ly.cacheHits = loop.cached;
    ly.cacheMisses = loop.cellsRun;
    checkCount(ctx, "serve-mixed", "result_cache_hits", loop.cached, rep);
    checkCount(ctx, "serve-mixed", "result_cache_misses", loop.cellsRun,
               rep);
    ly.cacheHitRatio = loop.cached + loop.cellsRun
                           ? double(loop.cached) /
                                 double(loop.cached + loop.cellsRun)
                           : 0.0;

    // Result-cache reads of one hit request, from the daemon's cache.
    Request hit = fig4Request(sz, canonicalSeed);
    std::vector<sim::SimConfig> hit_cfgs = configsOf(hit.scenarios);
    std::vector<sim::MatrixRow> hit_rows(hit.benchmarks.size());
    std::vector<double> load_ms;
    for (u64 rep_i = 0; rep_i < 3; ++rep_i) {
        sim::ResultCache cache(ctx.opt.workDir + "/" + d->cacheDir());
        Scope req_span(L, "sim.cache_load_request", -1, 200 + rep_i);
        for (size_t b = 0; b < hit.benchmarks.size(); ++b) {
            hit_rows[b].benchmark = hit.benchmarks[b];
            hit_rows[b].byConfig.resize(hit_cfgs.size());
            for (size_t c = 0; c < hit_cfgs.size(); ++c) {
                sim::RunResult &rr = hit_rows[b].byConfig[c];
                rr.benchmark = hit.benchmarks[b];
                rr.configLabel = hit_cfgs[c].label;
                rr.phases.clear();
                sim::CacheKey key{hit.benchmarks[b],
                                  sim::configHash(hit_cfgs[c]), 0,
                                  hit_cfgs[c].seed};
                std::optional<sim::PhaseResult> pr;
                {
                    Scope s(L, "sim.cache_load", req_span.id, 200 + rep_i);
                    pr = cache.load(key);
                }
                if (!pr)
                    rsep_fatal("perfbench: result cache misses a cell of "
                               "the canonical matrix");
                rr.phases.push_back(std::move(*pr));
            }
        }
        load_ms.push_back(req_span.close());
    }
    ly.cacheLoadMs = median(load_ms);
    ly.dumpMs = dumpMs(L, hit, hit_rows, 203);
    ly.busyRejections = d->stop();

    // Miss requests replayed through the layer calls, against untraced
    // runs of the same requests; each traced cell is then stored.
    std::string traces = ctx.opt.workDir + "/" + tracesDir(0);
    Pairs p;
    std::vector<double> store_ms;
    sim::ResultCache store(ctx.opt.workDir + "/store-probe");
    const u32 misses = std::min<u32>(8, sz.missPool);
    for (u32 i = 0; i < misses; ++i) {
        Request req = missRequest(sz, poolSeed(i), traces);
        runPair(L, req, 1 + i, p, [] {});
        checkTracedDump(ctx, "miss", poolSeed(i), req, p.traced.back(), rep);
        std::vector<sim::SimConfig> cfgs = configsOf(req.scenarios);
        Scope req_span(L, "sim.cache_store_request", -1, 300 + i);
        const Traced &t = p.traced.back();
        for (size_t b = 0; b < req.benchmarks.size(); ++b)
            for (size_t c = 0; c < cfgs.size(); ++c)
                for (u32 ph = 0; ph < cfgs[c].checkpoints; ++ph) {
                    Scope s(L, "sim.cache_store", req_span.id, 300 + i);
                    store.store({req.benchmarks[b], sim::configHash(cfgs[c]),
                                 ph, cfgs[c].seed},
                                t.rows[b].byConfig[c].phases[ph]);
                }
        store_ms.push_back(req_span.close());
    }
    ly.cacheStoreMs = median(store_ms);
    fromPairs(L, p, ly);
    std::vector<CellLedger> cells;
    for (const Traced &t : p.traced)
        cells.insert(cells.end(), t.cells.begin(), t.cells.end());
    checkCounts(ctx, "serve-mixed", Counts(cells), rep);

    // The serve layer's self time is the client latency per request.
    std::set<u64> requests;
    for (u64 k = 0; k < loop.attempted; ++k)
        requests.insert(loopRequestBase + k);
    std::map<std::string, double> serve_self = L.selfMsByLayer(requests);
    ly.selfMs["serve"] =
        loop.attempted ? serve_self["serve"] / double(loop.attempted) : 0;
    fromProbe(probeRequest(L, p.traced.back(), traces, 100), ly);
    return finish(ctx, "serve-mixed", L, ly, rep);
}

} // namespace perfbench
