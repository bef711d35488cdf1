/**
 * @file
 * perfbench: the repository benchmark (see BENCHMARK.json).
 *
 *   perfbench --workload fig4-live|replay-sweep|serve-mixed --seed N
 *             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
 *             --reference FILE [--smoke]
 *   perfbench --make-reference --bin-dir DIR --work-dir DIR
 *             --reference FILE
 *   perfbench --setup-only --workload NAME --bin-dir DIR --work-dir DIR
 *             [--smoke]     (one set-up; prints its seconds)
 *
 * The last line of stdout is the result: one JSON object with the keys
 * correct, attempted, failed and metrics. perfbench/run.py builds this
 * program and runs it; call that instead.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --bin-dir DIR --work-dir DIR --reference "
                 "FILE [--smoke]\n"
                 "       perfbench --make-reference --bin-dir DIR "
                 "--work-dir DIR --reference FILE\n"
                 "       perfbench --setup-only --workload NAME --bin-dir "
                 "DIR --work-dir DIR [--smoke]\n",
                 why);
    return 2;
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end && *end == '\0' && end != s;
}

/**
 * Digests of every request a run can issue, from direct in-process
 * runs, then the work counts of the traced runs.
 */
int
makeReference(Context &ctx, const std::string &path)
{
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    for (const Sizing &sz : {Sizing::full(), Sizing::smoke()}) {
        ctx.sz = sz;
        std::fprintf(stderr, "[reference] %s sizing\n", sz.name.c_str());
        std::string traces = ctx.opt.workDir + "/traces-ref-" + sz.name;
        recordTraces(sz.sweepBenches, sz, traces);
        recordTraces(sz.missBenches, sz, traces);

        auto put = [&](const std::string &kind, const Request &req) {
            ctx.refs.set(refKey(sz, kind, req.seed),
                         digestOf(canonicalDump(req, runDirect(req,
                                                               threads))));
        };
        put("fig4", fig4Request(sz, canonicalSeed));
        for (u32 i = 0; i < sz.fig4Pool; ++i)
            put("fig4", fig4Request(sz, poolSeed(i)));
        put("sweep", sweepRequest(sz, canonicalSeed, traces));
        for (u32 i = 0; i < sz.sweepPool; ++i)
            put("sweep", sweepRequest(sz, poolSeed(i), traces));
        for (u32 i = 0; i < sz.missPool; ++i)
            put("miss", missRequest(sz, poolSeed(i), traces));

        ctx.makeReference = true;
        ctx.opt.seconds = 1;
        traceFig4Live(ctx);
        traceReplaySweep(ctx);
        traceServeMixed(ctx);
        ctx.makeReference = false;
    }
    if (!ctx.refs.save(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "[reference] wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::string ref_path;
    bool make_ref = false, setup_only = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            ctx.opt.smoke = true;
            continue;
        }
        if (a == "--make-reference") {
            make_ref = true;
            continue;
        }
        if (a == "--setup-only") {
            setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        double num = 0;
        if (a == "--workload") {
            ctx.opt.workload = v;
        } else if (a == "--seed") {
            if (!parseNumber(v, num) || num < 0 || num != double(u64(num)))
                return usage("--seed wants a whole number");
            ctx.opt.seed = static_cast<u64>(num);
            have_seed = true;
        } else if (a == "--seconds") {
            if (!parseNumber(v, num) || num <= 0 || num > 60)
                return usage("--seconds wants a number in (0, 60]");
            ctx.opt.seconds = num;
            have_seconds = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace wants 0 or 1");
            ctx.opt.trace = v[0] == '1';
            have_trace = true;
        } else if (a == "--bin-dir") {
            ctx.opt.binDir = v;
        } else if (a == "--work-dir") {
            ctx.opt.workDir = v;
        } else if (a == "--reference") {
            ref_path = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (ctx.opt.binDir.empty() || ctx.opt.workDir.empty())
        return usage("--bin-dir and --work-dir are required");

    std::error_code ec;
    std::filesystem::remove_all(ctx.opt.workDir, ec);
    std::filesystem::create_directories(ctx.opt.workDir, ec);
    if (ec)
        return usage(("cannot create " + ctx.opt.workDir).c_str());
    ctx.sz = ctx.opt.smoke ? Sizing::smoke() : Sizing::full();

    if (setup_only) {
        std::printf("%.9f\n", setupOnce(ctx));
        return 0;
    }
    if (ref_path.empty())
        return usage("--reference is required");

    if (make_ref)
        return makeReference(ctx, ref_path);

    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");
    std::string err;
    if (!ctx.refs.load(ref_path, &err))
        return usage(err.c_str());

    Report rep;
    const std::string &w = ctx.opt.workload;
    if (w == "fig4-live")
        rep = ctx.opt.trace ? traceFig4Live(ctx) : runFig4Live(ctx);
    else if (w == "replay-sweep")
        rep = ctx.opt.trace ? traceReplaySweep(ctx) : runReplaySweep(ctx);
    else if (w == "serve-mixed")
        rep = ctx.opt.trace ? traceServeMixed(ctx) : runServeMixed(ctx);
    else
        return usage(("unknown workload '" + w + "'").c_str());

    std::cout << rep.json() << std::endl;
    return 0;
}
