/**
 * @file
 * The three untraced workloads. Each run: time `setupRepeats` set-ups
 * (setup_s is their median), make one untimed warm-up pass, then
 * measure over a Timeline, checking every result against its
 * reference digest.
 *
 * A request either repeats the canonical request (a "hit": served by
 * the result cache on serve-mixed, re-simulated where there is no
 * cache) or is novel (a "miss": a pool seed not yet used in the run).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "workloads.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/trace_cache.hh"
#include "wl/workload_spec.hh"

namespace perfbench
{

namespace sim = rsep::sim;
namespace wl = rsep::wl;

void
buildRegistry(const std::vector<std::string> &benches, Ledger *ledger)
{
    std::optional<Scope> span;
    if (ledger)
        span.emplace(*ledger, "wl.registry", -1, setupRequest);
    for (const std::string &b : benches) {
        if (!wl::resolveWorkloadKey(b))
            rsep_fatal("perfbench: unknown workload '%s'", b.c_str());
        wl::Workload w = wl::makeWorkload(b);
        if (w.program.empty())
            rsep_fatal("perfbench: workload '%s' has no code", b.c_str());
    }
}

void
initEmulators(const std::vector<std::string> &benches, Ledger *ledger)
{
    std::optional<Scope> span;
    if (ledger)
        span.emplace(*ledger, "wl.emulator_init", -1, setupRequest);
    for (const std::string &b : benches) {
        wl::Workload w = wl::makeWorkload(b);
        wl::Emulator emu(w.program);
        emu.resetArchState();
        w.init(emu, 0);
    }
}

void
recordTraces(const std::vector<std::string> &benches, const Sizing &sz,
             const std::string &dir)
{
    sim::MatrixOptions mo;
    mo.jobs = jobs;
    mo.progress = false;
    mo.traceIo.recordDir = dir;
    sim::runMatrix(configsOf(armScenarios({"baseline"}, sz.recordWarmup,
                                          sz.recordMeasure,
                                          sz.sweepCheckpoints,
                                          canonicalSeed)),
                   benches, mo);
}

std::string
tracesDir(int setup)
{
    return "traces-" + std::to_string(setup);
}

bool
matchesReference(const Context &ctx, const std::string &kind, u64 seed,
                 const std::string &digest)
{
    std::optional<std::string> ref = ctx.refs.get(refKey(ctx.sz, kind, seed));
    if (ref && *ref == digest)
        return true;
    std::fprintf(stderr,
                 "perfbench: %s request, seed %llu: stat dump digest %s "
                 "does not match the reference %s\n",
                 kind.c_str(), static_cast<unsigned long long>(seed),
                 digest.c_str(), ref ? ref->c_str() : "(none)");
    return false;
}

double
StealMeter::lap()
{
    // Fields: user nice system idle iowait irq softirq steal.
    std::ifstream in("/proc/stat");
    std::string cpu;
    u64 v[8] = {};
    in >> cpu;
    for (u64 &x : v)
        in >> x;
    u64 b = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    double share = b > busy ? double(v[7] - steal) / double(b - busy) : 0;
    steal = v[7];
    busy = b;
    return share;
}

Timeline::Timeline(const Context &ctx, double segment_s, Rank rank_)
    : seconds(ctx.opt.seconds),
      cap(std::min(std::max(3 * ctx.opt.seconds, 30.0), 100.0)),
      segmentS(segment_s), rank(rank_), minSamples(ctx.sz.minSamples),
      t0(Clock::now()), segStart(t0)
{
}

bool
Timeline::more() const
{
    std::lock_guard<std::mutex> lk(mu);
    double s = msSince(t0) / 1000.0;
    if (s < seconds)
        return true;
    if (s >= cap)
        return false;
    return hits < 2 * minSamples || misses < 2 * minSamples;
}

void
Timeline::add(const Op &op)
{
    std::lock_guard<std::mutex> lk(mu);
    open.ops.push_back(op);
    ++(op.novel ? misses : hits);
    if (segmentS > 0 && msSince(segStart) >= 1000.0 * segmentS)
        cutLocked(-1);
}

void
Timeline::cut(double timed_s)
{
    std::lock_guard<std::mutex> lk(mu);
    cutLocked(timed_s);
}

void
Timeline::cutLocked(double timed_s)
{
    auto now = Clock::now();
    open.seconds = timed_s >= 0
                       ? timed_s
                       : std::chrono::duration<double>(now - segStart).count();
    open.steal = meter.lap();
    segStart = now;
    if (!open.ops.empty())
        done.push_back(std::move(open));
    open = Segment{};
}

void
Timeline::report(Report &rep, const std::vector<double> &setup_s,
                 double peak_rss_mb)
{
    std::lock_guard<std::mutex> lk(mu);
    if (!open.ops.empty())
        cutLocked(segmentS > 0 ? -1 : 0);
    // A short last segment spans too few clock ticks for its steal
    // reading: fold it into the one before.
    if (done.size() >= 2 &&
        done.back().seconds < 0.5 * done[done.size() - 2].seconds) {
        Segment last = std::move(done.back());
        done.pop_back();
        Segment &prev = done.back();
        prev.steal = (prev.steal * prev.seconds + last.steal * last.seconds) /
                     (prev.seconds + last.seconds);
        prev.seconds += last.seconds;
        prev.ops.insert(prev.ops.end(), last.ops.begin(), last.ops.end());
    }
    auto ran = [](double steal) { return std::max(1.0 - steal, 0.05); };
    auto speed = [&](const Segment *seg) {
        return double(seg->ops.size()) / (seg->seconds * ran(seg->steal));
    };
    std::vector<const Segment *> order;
    for (const Segment &seg : done)
        order.push_back(&seg);
    std::stable_sort(order.begin(), order.end(),
                     [&](const Segment *a, const Segment *b) {
                         return rank == Rank::Steal ? a->steal < b->steal
                                                    : speed(a) > speed(b);
                     });
    std::vector<double> hit_ms, miss_ms;
    double wall_s = 0, ran_s = 0;
    u64 insts = 0, ops = 0;
    size_t used = 0;
    for (const Segment *seg : order) {
        if (used >= keptShare * double(order.size()) &&
            hit_ms.size() >= minSamples && miss_ms.size() >= minSamples)
            break;
        ++used;
        double seg_ran = ran(seg->steal);
        wall_s += seg->seconds;
        ran_s += seg->seconds * seg_ran;
        for (const Op &op : seg->ops) {
            double op_ran = op.steal < 0 ? seg_ran : ran(op.steal);
            (op.novel ? miss_ms : hit_ms).push_back(op.ms * op_ran);
            insts += op.insts;
            ++ops;
        }
    }

    std::fprintf(stderr, "[perfbench] set-ups (s):");
    for (double s : setup_s)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n[perfbench] segments (s, steal %%, ops):");
    for (const Segment &seg : done)
        std::fprintf(stderr, " %.2f/%.1f/%zu", seg.seconds,
                     100 * seg.steal, seg.ops.size());
    std::fprintf(stderr,
                 "\n[perfbench] kept %zu segments (steal %.1f%%): "
                 "%zu hits, %zu misses of %zu, %zu; %.4g ops/s by the "
                 "wall clock\n",
                 used, 100 * (1 - ran_s / wall_s), hit_ms.size(),
                 miss_ms.size(), hits, misses, double(ops) / wall_s);
    for (auto [what, n] : {std::pair{"hit", hit_ms.size()},
                           std::pair{"miss", miss_ms.size()}})
        if (n < minSamples)
            std::fprintf(stderr,
                         "perfbench: only %zu %s samples (want %zu)\n", n,
                         what, minSamples);

    rep.add("setup_s", "s", median(setup_s));
    rep.add("sim_minst_per_s", "Minst/s", double(insts) / ran_s / 1e6);
    rep.add("peak_rss_mb", "MB", peak_rss_mb);
    rep.add("requests_per_s", "1/s", double(ops) / ran_s);
    rep.add("hit_p50_ms", "ms", percentile(hit_ms, 50));
    rep.add("hit_p90_ms", "ms", percentile(hit_ms, 90));
    rep.add("miss_p50_ms", "ms", percentile(miss_ms, 50));
    rep.add("miss_p90_ms", "ms", percentile(miss_ms, 90));
}

double
setupOnce(const Context &ctx)
{
    const std::string &w = ctx.opt.workload;
    if (w == "fig4-live")
        return setupFig4Live(ctx, nullptr);
    if (w == "replay-sweep")
        return setupReplaySweep(ctx, 0, nullptr);
    double s = 0;
    setupServeMixed(ctx, 0, &s, nullptr)->stop();
    return s;
}

std::vector<double>
timeSetups(const Context &ctx)
{
    char self[4096];
    ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0)
        rsep_fatal("perfbench: cannot resolve /proc/self/exe");
    self[n] = '\0';
    std::vector<double> out;
    StealMeter meter;
    for (int k = 0; k < setupRepeats; ++k) {
        std::string tag = ctx.opt.workDir + "/setup-" + std::to_string(k);
        std::vector<std::string> argv = {
            self, "--setup-only", "--workload", ctx.opt.workload,
            "--bin-dir", ctx.opt.binDir, "--work-dir", tag};
        if (ctx.opt.smoke)
            argv.push_back("--smoke");
        int code = waitExit(spawn(argv, ".", tag + ".err", tag + ".out"));
        std::ifstream in(tag + ".out");
        double s = 0;
        if (code != 0 || !(in >> s))
            rsep_fatal("perfbench: set-up %d failed (exit %d), see %s.err",
                       k, code, tag.c_str());
        out.push_back(s);
    }
    // One steal reading for the whole block: a single set-up spans too
    // few clock ticks for its own.
    double steal = meter.lap();
    std::fprintf(stderr, "[perfbench] set-ups: steal %.1f%%\n", 100 * steal);
    for (double &s : out)
        s *= std::max(1.0 - steal, 0.05);
    return out;
}

// ----------------------------------------------------------- fig4-live

double
setupFig4Live(const Context &ctx, Ledger *ledger)
{
    auto t0 = Clock::now();
    buildRegistry(ctx.sz.fig4Benches, ledger);
    initEmulators(ctx.sz.fig4Benches, ledger);
    return msSince(t0) / 1000.0;
}

Report
runFig4Live(Context &ctx)
{
    const Sizing &sz = ctx.sz;
    Report rep;
    std::vector<double> setup_s = timeSetups(ctx);
    setupFig4Live(ctx, nullptr);

    Request canon = fig4Request(sz, canonicalSeed);
    if (!matchesReference(ctx, "fig4", canonicalSeed,
                          digestOf(canonicalDump(canon, runDirect(canon)))))
        rep.correct = false;

    // Operations are matrix cells and segments are passes; passes
    // alternate in seeded blocks of two between the canonical matrix
    // and a novel seed.
    Schedule sched(ctx.opt.seed, 2, sz.fig4Pool);
    Timeline tl(ctx, 0, Rank::Speed);
    for (u64 k = 0; tl.more(); ++k) {
        u64 seed = sched.seedOf(k);
        Request req = seed == canonicalSeed ? canon : fig4Request(sz, seed);
        auto t0 = Clock::now();
        std::vector<sim::MatrixRow> rows = runDirect(req);
        double ms = msSince(t0);

        for (const sim::MatrixRow &row : rows)
            for (size_t c = 0; c < row.byConfig.size(); ++c) {
                const sim::SimConfig &cfg = req.scenarios[c].config;
                for (const sim::PhaseResult &ph : row.byConfig[c].phases) {
                    tl.add({ph.wallMicros / 1000.0, Schedule::isNovel(seed),
                            cfg.warmupInsts + cfg.measureInsts});
                    ++rep.attempted;
                }
            }
        tl.cut(ms / 1000.0);
        if (!matchesReference(ctx, "fig4", seed,
                              digestOf(canonicalDump(req, rows)))) {
            rep.failed += rows.size() * req.scenarios.size();
            rep.correct = false;
        }
    }
    tl.report(rep, setup_s, peakRssMb());
    return rep;
}

// -------------------------------------------------------- replay-sweep

double
setupReplaySweep(const Context &ctx, int k, Ledger *ledger)
{
    auto t0 = Clock::now();
    buildRegistry(ctx.sz.sweepBenches, ledger);
    recordTraces(ctx.sz.sweepBenches, ctx.sz,
                 ctx.opt.workDir + "/" + tracesDir(k));
    return msSince(t0) / 1000.0;
}

Report
runReplaySweep(Context &ctx)
{
    const Sizing &sz = ctx.sz;
    Report rep;
    std::vector<double> setup_s = timeSetups(ctx);
    setupReplaySweep(ctx, 0, nullptr);
    std::string traces = ctx.opt.workDir + "/" + tracesDir(0);

    Request canon = sweepRequest(sz, canonicalSeed, traces);
    wl::traceCache().clear();
    if (!matchesReference(ctx, "sweep", canonicalSeed,
                          digestOf(canonicalDump(canon, runDirect(canon)))))
        rep.correct = false;

    // Operations are whole sweeps, each starting from an empty decoded
    // trace cache; a segment closes after segmentSeconds of sweeps.
    Schedule sched(ctx.opt.seed, 2, sz.sweepPool);
    Timeline tl(ctx, 0, Rank::Speed);
    double timed_s = 0;
    for (u64 k = 0; tl.more(); ++k) {
        u64 seed = sched.seedOf(k);
        Request req =
            seed == canonicalSeed ? canon : sweepRequest(sz, seed, traces);
        wl::traceCache().clear();
        StealMeter meter;
        auto t0 = Clock::now();
        std::vector<sim::MatrixRow> rows = runDirect(req);
        double ms = msSince(t0);
        double steal = meter.lap();

        ++rep.attempted;
        if (!matchesReference(ctx, "sweep", seed,
                              digestOf(canonicalDump(req, rows)))) {
            ++rep.failed;
            rep.correct = false;
        }
        tl.add({ms, Schedule::isNovel(seed), requestInsts(req), steal});
        timed_s += ms / 1000.0;
        if (timed_s >= segmentSeconds) {
            tl.cut(timed_s);
            timed_s = 0;
        }
    }
    tl.cut(timed_s);
    tl.report(rep, setup_s, peakRssMb());
    return rep;
}

// --------------------------------------------------------- serve-mixed

std::vector<std::string>
serveBenches(const Sizing &sz)
{
    std::vector<std::string> all = sz.fig4Benches;
    for (const std::string &b : sz.missBenches)
        if (std::find(all.begin(), all.end(), b) == all.end())
            all.push_back(b);
    return all;
}

std::string
joined(const std::vector<std::string> &v)
{
    std::string out;
    for (const std::string &s : v)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

ClientJob
hitJob(const Context &ctx)
{
    return {"fig4.scn", joined(ctx.sz.fig4Benches), "", canonicalSeed};
}

ClientJob
missJob(const Context &ctx, const std::string &traces, u64 seed)
{
    return {"miss.scn", joined(ctx.sz.missBenches), traces, seed};
}

std::unique_ptr<Daemon>
setupServeMixed(const Context &ctx, int k, double *setup_s, Ledger *ledger)
{
    auto t0 = Clock::now();
    buildRegistry(serveBenches(ctx.sz), ledger);
    // The clients read canonical scenario text: every field explicit, so
    // their configs (and config hashes) equal the in-process ones.
    std::ofstream(ctx.opt.workDir + "/fig4.scn")
        << sim::serializeScenarios(
               fig4Request(ctx.sz, canonicalSeed).scenarios);
    std::ofstream(ctx.opt.workDir + "/miss.scn")
        << sim::serializeScenarios(
               missRequest(ctx.sz, canonicalSeed, "").scenarios);
    recordTraces(ctx.sz.missBenches, ctx.sz,
                 ctx.opt.workDir + "/" + tracesDir(k));
    auto d = std::make_unique<Daemon>(ctx.opt, k);
    std::string err;
    if (!d->start(&err))
        rsep_fatal("perfbench: %s", err.c_str());
    *setup_s = msSince(t0) / 1000.0;
    return d;
}

bool
warmServe(const Context &ctx, const Daemon &d)
{
    // Fills the fresh result cache with the canonical matrix, then
    // checks that a repeat is served from it.
    bool ok = true;
    for (int pass = 0; pass < 2; ++pass) {
        ClientResult r = runClient(ctx.opt, d, hitJob(ctx), 0);
        if (r.exitCode != 0 || !r.done ||
            !matchesReference(ctx, "fig4", canonicalSeed, r.digest)) {
            std::fprintf(stderr,
                         "perfbench: warm-up request failed (exit %d)\n",
                         r.exitCode);
            ok = false;
        }
    }
    return ok;
}

ServeLoop
runServeLoop(const Context &ctx, const Daemon &d, const std::string &traces,
             Timeline &tl, Ledger *ledger)
{
    const Sizing &sz = ctx.sz;
    const u64 hit_cells = sz.fig4Benches.size() * fig4Arms().size();
    const u64 miss_cells =
        sz.missBenches.size() * fig4Arms().size() * sz.sweepCheckpoints;
    const u64 miss_insts = requestInsts(missRequest(sz, canonicalSeed, ""));

    ServeLoop out;
    std::mutex mu;
    Schedule sched(ctx.opt.seed, 4, sz.missPool);
    u64 next = 0;

    auto client = [&](unsigned slot) {
        for (;;) {
            u64 k, seed;
            {
                std::lock_guard<std::mutex> lk(mu);
                if (!tl.more())
                    return;
                k = next++;
                seed = sched.seedOf(k);
            }
            bool novel = Schedule::isNovel(seed);
            ClientJob job =
                novel ? missJob(ctx, traces, seed) : hitJob(ctx);
            int span = ledger ? ledger->begin("serve.request", -1,
                                               loopRequestBase + k) : -1;
            StealMeter meter;
            ClientResult r = runClient(ctx.opt, d, job, slot);
            double steal = meter.lap();
            if (ledger)
                ledger->end(span);

            bool transient = r.exitCode >= 3 && r.exitCode <= 6;
            bool same = r.exitCode == 0 &&
                        matchesReference(ctx, novel ? "miss" : "fig4", seed,
                                         r.digest);
            bool counts_ok =
                r.done && (novel ? r.cellsRun == miss_cells && r.cached == 0
                                 : r.cellsRun == 0 && r.cached == hit_cells);
            bool ok = same && counts_ok && !r.busy;

            std::lock_guard<std::mutex> lk(mu);
            if (++out.attempted == sz.rssAfterRequests)
                out.peakRssMb = d.peakRssMb();
            out.retries += r.retries;
            if (k < sz.countedRequests) {
                out.cellsRun += r.cellsRun;
                out.cached += r.cached;
            }
            if (!ok) {
                ++out.failed;
                if (!transient && !r.busy) {
                    std::fprintf(stderr,
                                 "perfbench: request %llu: exit %d, "
                                 "%llu run, %llu cached\n",
                                 static_cast<unsigned long long>(k),
                                 r.exitCode,
                                 static_cast<unsigned long long>(r.cellsRun),
                                 static_cast<unsigned long long>(r.cached));
                    out.correct = false;
                }
                continue;
            }
            tl.add({r.latencyMs, novel, novel ? miss_insts : 0, steal});
            out.serverMs.push_back(r.serverMs);
            out.overheadMs.push_back(r.latencyMs - r.serverMs);
            out.queueMs.push_back(r.queueMs);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned slot = 0; slot < serveClients; ++slot)
        threads.emplace_back(client, slot);
    for (std::thread &t : threads)
        t.join();
    if (out.peakRssMb == 0)
        out.peakRssMb = d.peakRssMb();
    return out;
}

Report
runServeMixed(Context &ctx)
{
    Report rep;
    std::vector<double> setup_s = timeSetups(ctx);
    double unused = 0;
    std::unique_ptr<Daemon> d = setupServeMixed(ctx, 0, &unused, nullptr);
    if (!warmServe(ctx, *d))
        rep.correct = false;

    Timeline tl(ctx, segmentSeconds, Rank::Steal);
    ServeLoop loop = runServeLoop(ctx, *d, tracesDir(0), tl, nullptr);
    d->stop();

    rep.correct = rep.correct && loop.correct;
    rep.attempted = loop.attempted;
    rep.failed = loop.failed;
    tl.report(rep, setup_s, loop.peakRssMb);
    return rep;
}

} // namespace perfbench
