#include "bench.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "sim/stat_export.hh"
#include "wl/suite.hh"

namespace perfbench
{

namespace sim = rsep::sim;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

Sizing
Sizing::full()
{
    Sizing s;
    s.name = "full";
    s.fig4Benches = rsep::wl::suiteNames();
    // ~25k instructions per cell: the cheapest cells still take ~10 ms,
    // so no latency percentile comes from sub-10 ms operations.
    s.fig4Warmup = 5000;
    s.fig4Measure = 20000;
    // The branch-bound set the predictor work is gated on.
    s.sweepBenches = {"gobmk", "sjeng", "astar", "perlbench"};
    s.missBenches = {"gobmk"};
    s.sweepWarmup = 1000;
    s.sweepMeasure = 4000;
    s.sweepCheckpoints = 1;
    // Traces ~12x longer than a window, so decode costs what it costs
    // when short windows are cut out of a longer recording.
    s.recordWarmup = 10000;
    s.recordMeasure = 50000;
    s.fig4Pool = 16;
    s.sweepPool = 512;
    s.missPool = 1024;
    s.minSamples = 100;
    s.rssAfterRequests = 20;
    s.countedRequests = 400;
    return s;
}

Sizing
Sizing::smoke()
{
    Sizing s;
    s.name = "smoke";
    s.fig4Benches = {"mcf", "gobmk", "hmmer"};
    s.fig4Warmup = 500;
    s.fig4Measure = 2000;
    s.sweepBenches = {"gobmk", "sjeng"};
    s.missBenches = {"gobmk"};
    s.sweepWarmup = 200;
    s.sweepMeasure = 800;
    s.sweepCheckpoints = 1;
    s.recordWarmup = 1000;
    s.recordMeasure = 3000;
    s.fig4Pool = 4;
    s.sweepPool = 16;
    s.missPool = 16;
    s.minSamples = 1;
    s.rssAfterRequests = 2;
    s.countedRequests = 4;
    return s;
}

const std::vector<std::string> &
fig4Arms()
{
    static const std::vector<std::string> arms = {
        "baseline", "zero-pred", "move-elim", "rsep", "vpred", "rsep+vpred"};
    return arms;
}

const std::vector<std::string> &
sweepArms()
{
    static const std::vector<std::string> arms = {"baseline", "zero-pred",
                                                  "move-elim", "vpred"};
    return arms;
}

std::vector<sim::Scenario>
armScenarios(const std::vector<std::string> &arms, u64 warmup, u64 measure,
             u32 checkpoints, u64 seed)
{
    std::vector<sim::Scenario> out;
    for (const std::string &arm : arms) {
        std::optional<sim::Scenario> sc = sim::findScenario(arm);
        if (!sc)
            rsep_fatal("perfbench: unknown scenario '%s'", arm.c_str());
        sc->config.warmupInsts = warmup;
        sc->config.measureInsts = measure;
        sc->config.checkpoints = checkpoints;
        sc->config.seed = seed;
        out.push_back(std::move(*sc));
    }
    return out;
}

std::vector<sim::SimConfig>
configsOf(const std::vector<sim::Scenario> &scenarios)
{
    std::vector<sim::SimConfig> out;
    for (const sim::Scenario &sc : scenarios)
        out.push_back(sc.config);
    return out;
}

Request
fig4Request(const Sizing &sz, u64 seed)
{
    return {armScenarios(fig4Arms(), sz.fig4Warmup, sz.fig4Measure, 1, seed),
            sz.fig4Benches, "", seed};
}

Request
sweepRequest(const Sizing &sz, u64 seed, const std::string &traces)
{
    return {armScenarios(sweepArms(), sz.sweepWarmup, sz.sweepMeasure,
                         sz.sweepCheckpoints, seed),
            sz.sweepBenches, traces, seed};
}

Request
missRequest(const Sizing &sz, u64 seed, const std::string &traces)
{
    return {armScenarios(fig4Arms(), sz.sweepWarmup, sz.sweepMeasure,
                         sz.sweepCheckpoints, seed),
            sz.missBenches, traces, seed};
}

std::vector<sim::MatrixRow>
runDirect(const Request &req, unsigned threads)
{
    sim::MatrixOptions mo;
    mo.jobs = threads;
    mo.progress = false;
    mo.traceIo.replayDir = req.replayDir;
    return sim::runMatrix(configsOf(req.scenarios), req.benchmarks, mo);
}

std::string
canonicalDump(const Request &req, const std::vector<sim::MatrixRow> &rows)
{
    std::vector<sim::StatRow> stat_rows =
        sim::collectStatRows(configsOf(req.scenarios), rows, false);
    std::ostringstream os;
    sim::CsvStatSink{}.write(os, stat_rows);
    return os.str();
}

std::string
digestOf(const std::string &dump)
{
    return rsep::hex64(rsep::fnv1a64(dump));
}

u64
requestInsts(const Request &req)
{
    u64 per_bench = 0;
    for (const sim::Scenario &sc : req.scenarios)
        per_bench += (sc.config.warmupInsts + sc.config.measureInsts) *
                     sc.config.checkpoints;
    return per_bench * req.benchmarks.size();
}

bool
References::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = path + ": cannot open";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.find(' ');
        if (sp == std::string::npos) {
            *err = path + ": malformed line '" + line + "'";
            return false;
        }
        kv[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return true;
}

std::optional<std::string>
References::get(const std::string &key) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return std::nullopt;
    return it->second;
}

void
References::set(const std::string &key, const std::string &value)
{
    kv[key] = value;
}

bool
References::save(const std::string &path) const
{
    std::ofstream os(path);
    os << "# Digests of the canonical stat dump of each request, from\n"
          "# direct in-process runs, and the traced runs' work counts.\n"
          "# Regenerate with: python3 perfbench/run.py --make-reference\n";
    for (const auto &[k, v] : kv)
        os << k << ' ' << v << '\n';
    return static_cast<bool>(os);
}

std::string
refKey(const Sizing &sz, const std::string &kind, u64 seed)
{
    return sz.name + "." + kind + "." + rsep::hex64(seed);
}

Schedule::Schedule(u64 seed, u32 period_, u32 pool_)
    : rng(seed), period(period_), pool(pool_),
      offset(pool_ ? static_cast<u32>(rng.below(pool_)) : 0)
{
}

u64
Schedule::seedOf(u64 k)
{
    if (k % period == 0)
        novelSlot = static_cast<u32>(rng.below(period));
    if (k % period != novelSlot || novelUsed >= pool)
        return canonicalSeed;
    return poolSeed((offset + novelUsed++) % pool);
}

void
Report::add(const std::string &name, const std::string &unit, double value)
{
    metrics.push_back({name, unit, value});
}

std::string
Report::json() const
{
    auto num = [](double v) {
        if (!std::isfinite(v))
            v = 0.0;
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return std::string(buf, res.ptr);
    };
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    return os.str();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
peakRssMb(int pid)
{
    std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace perfbench
