#include "sim/simulator.hh"

#include <chrono>
#include <filesystem>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/spec_engine.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace rsep::sim
{

double
RunResult::ipcHmean() const
{
    std::vector<double> v;
    v.reserve(phases.size());
    for (const auto &ph : phases)
        v.push_back(ph.ipc);
    return harmonicMean(v);
}

double
RunResult::ratioOfCommitted(StatCounter core::PipelineStats::* member) const
{
    u64 insts = sum(&core::PipelineStats::committedInsts);
    if (insts == 0)
        return 0.0;
    return static_cast<double>(sum(member)) / static_cast<double>(insts);
}

namespace
{

/**
 * Slack records appended after a recording run: a later replay under a
 * config with a slightly deeper fetch lookahead (bigger ROB/front-end,
 * different squash pattern) may pull a few more records than the
 * recording config did. Generously above any lookahead the Table I
 * core family can reach, and cheap (~200KB per trace).
 */
constexpr u64 traceRecordSlack = 8192;

/** The timing run itself, identical for every source kind. */
PhaseResult
runTimedPhase(const SimConfig &cfg, wl::TraceSource &src, u32 phase,
              u64 sample_every)
{
    core::Pipeline pipe(cfg.core, cfg.mech, src,
                        cfg.seed ^ (0x9e37 * (phase + 1)));
    pipe.run(cfg.warmupInsts);
    pipe.resetStats();
    // Sampling covers exactly the measurement run: attach after the
    // stats reset so cycle 0 of the series is cycle 0 of measurement.
    core::StatSampler sampler(sample_every ? sample_every : 1);
    if (sample_every)
        pipe.attachSampler(&sampler);
    pipe.run(cfg.measureInsts);
    if (sample_every)
        pipe.finishSampling();

    PhaseResult pr;
    if (sample_every)
        pr.samples = sampler.rows();
    pr.stats = pipe.stats();
    pr.ipc = pr.stats.ipc();
    for (const core::SpeculationEngine *eng : pipe.engines())
        for (const auto &entry : eng->statEntries())
            pr.engineStats.emplace_back("engine." + eng->name() + "." +
                                            entry.name,
                                        entry.counter->value());
    return pr;
}

} // namespace

PhaseResult
runPhase(const SimConfig &cfg, const std::string &bench_name, u32 phase,
         const TraceIoOptions &trace_io, u64 sample_every)
{
    auto t0 = std::chrono::steady_clock::now();
    auto finish = [&](PhaseResult pr) {
        pr.wallMicros = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return pr;
    };

    // ---- replay path: no emulator, no memory init ----
    if (!trace_io.replayDir.empty()) {
        std::optional<wl::WorkloadSpec> spec =
            wl::findWorkloadSpec(bench_name);
        if (!spec)
            rsep_fatal("replay: unknown workload '%s' (scenario-defined "
                       "workloads must be registered before the run)",
                       bench_name.c_str());
        std::string path =
            wl::tracePath(trace_io.replayDir, bench_name, phase);
        std::error_code ec;
        if (!std::filesystem::exists(path, ec)) {
            if (trace_io.recordDir.empty())
                rsep_fatal("replay: %s: no trace recorded for (%s, phase "
                           "%u); record it first with --record-trace",
                           path.c_str(), bench_name.c_str(), phase);
            // Fall through: live-emulate (and record) the missing cell.
        } else {
            // One decode per (path, checksum) process-wide: every arm
            // of a sweep replaying this cell shares the same immutable
            // DecodedTrace snapshot out of the cache.
            auto tload = std::chrono::steady_clock::now();
            wl::DecodedTraceCache::Result cached =
                wl::traceCache().get(path);
            u64 load_micros = static_cast<u64>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - tload)
                    .count());
            if (!cached.ok())
                rsep_fatal("replay: %s", cached.error.c_str());
            const wl::TraceHeader &header = cached.trace->header;
            if (header.workload != bench_name || header.phase != phase ||
                header.workloadHash != wl::workloadHash(*spec))
                rsep_fatal("replay: %s: trace identity (%s, phase %u, "
                           "hash %s) does not match the requested cell "
                           "(%s, phase %u, hash %s)",
                           path.c_str(), header.workload.c_str(),
                           header.phase, header.workloadHash.c_str(),
                           bench_name.c_str(), phase,
                           wl::workloadHash(*spec).c_str());
            wl::Workload w = wl::buildWorkload(*spec);
            wl::ReplayTraceSource src(cached.trace, w.program, path);
            PhaseResult pr = runTimedPhase(cfg, src, phase, sample_every);
            pr.replayed = true;
            pr.traceLoadMicros = load_micros;
            pr.traceDecodeHit = cached.hit;
            return finish(std::move(pr));
        }
    }

    // ---- live-emulation path (optionally recording) ----
    wl::Workload w = wl::makeWorkload(bench_name);
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, phase);

    if (!trace_io.recordDir.empty()) {
        wl::RecordingTraceSource rec(emu);
        PhaseResult pr = runTimedPhase(cfg, rec, phase, sample_every);
        rec.recordSlack(traceRecordSlack);
        wl::TraceHeader header;
        header.workload = bench_name;
        std::optional<wl::WorkloadSpec> spec =
            wl::findWorkloadSpec(bench_name);
        header.workloadHash =
            spec ? wl::workloadHash(*spec) : std::string(16, '0');
        header.phase = phase;
        std::string path =
            wl::tracePath(trace_io.recordDir, bench_name, phase);
        std::string err;
        if (!rec.write(path, header, &err))
            rsep_warn("record-trace: %s", err.c_str());
        return finish(std::move(pr));
    }

    return finish(runTimedPhase(cfg, emu, phase, sample_every));
}

void
accountPhaseTiming(RunTiming &timing, const PhaseResult &pr)
{
    timing.wallMicros += pr.wallMicros;
    if (pr.fromCache)
        ++timing.cacheHits;
    else
        ++timing.cellsRun;
    timing.traceLoadMicros += pr.traceLoadMicros;
    if (pr.replayed) {
        if (pr.traceDecodeHit)
            ++timing.traceDecodeHits;
        else
            ++timing.traceDecodeMisses;
    }
}

RunResult
runWorkload(const SimConfig &cfg, const std::string &bench_name,
            const TraceIoOptions &trace_io, u64 sample_every)
{
    RunResult out;
    out.benchmark = bench_name;
    out.configLabel = cfg.label;
    for (u32 phase = 0; phase < cfg.checkpoints; ++phase) {
        out.phases.push_back(
            runPhase(cfg, bench_name, phase, trace_io, sample_every));
        accountPhaseTiming(out.timing, out.phases.back());
    }
    return out;
}

double
speedupPct(const RunResult &a, const RunResult &b)
{
    double base = b.ipcHmean();
    if (base <= 0.0)
        return 0.0;
    return (a.ipcHmean() / base - 1.0) * 100.0;
}

} // namespace rsep::sim
