/**
 * @file
 * Shared pieces of the perfbench program: run sizing, the request
 * schedule, reference digests, metric reporting and statistics.
 *
 * Every workload pins its run sizing here instead of through the
 * RSEP_* environment, runs on exactly `jobs` worker threads, and
 * checks each result against a digest of the direct in-process run
 * stored in perfbench/reference.txt.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace perfbench
{

using rsep::u32;
using rsep::u64;
using Clock = std::chrono::steady_clock;

/** Worker threads of every simulating process: fixed, never auto. */
constexpr unsigned jobs = 2;

/** Concurrent client connections of serve-mixed (closed loop). */
constexpr unsigned serveClients = 2;

/** Seed of every repeated request (the SimConfig default). */
constexpr u64 canonicalSeed = 0x5eed;

/** Seed of the i-th novel request; its digest is reference entry i. */
inline u64 poolSeed(u32 i) { return 0x10000 + i; }

double msSince(Clock::time_point t0);

/** Run sizing of one benchmark mode (full or smoke). */
struct Sizing
{
    std::string name; ///< reference-file section: "full" or "smoke".
    /** The Fig. 4 matrix: fig4-live passes and serve-mixed hits. */
    std::vector<std::string> fig4Benches;
    u64 fig4Warmup = 0, fig4Measure = 0;
    /** Short replay windows: replay-sweep and serve-mixed misses. */
    std::vector<std::string> sweepBenches;
    std::vector<std::string> missBenches;
    u64 sweepWarmup = 0, sweepMeasure = 0;
    u32 sweepCheckpoints = 1;
    /** Recorded trace length per (benchmark, phase). */
    u64 recordWarmup = 0, recordMeasure = 0;
    /** Novel seeds with a reference digest, per request kind. */
    u32 fig4Pool = 0, sweepPool = 0, missPool = 0;
    /** Samples each latency class needs before a run may stop: ten
     *  beyond the 90th percentile. */
    size_t minSamples = 0;
    /** Timed serve requests after which the daemon's peak RSS is read.
     *  The daemon keeps each connection's thread until it shuts down
     *  (~20 KB resident each, growing in irregular steps), so a peak
     *  read at the end of the window would follow how many requests it
     *  served rather than what serving costs. */
    u64 rssAfterRequests = 0;
    /** serve-mixed: the result-cache counts cover the first this many
     *  requests of the schedule, so they repeat exactly. */
    u64 countedRequests = 0;

    static Sizing full();
    static Sizing smoke();
};

/** The six Fig. 4 arms and the four arms without RSEP. */
const std::vector<std::string> &fig4Arms();
const std::vector<std::string> &sweepArms();

/** Registered arms resized to one window and seed. */
std::vector<rsep::sim::Scenario>
armScenarios(const std::vector<std::string> &arms, u64 warmup, u64 measure,
             u32 checkpoints, u64 seed);
std::vector<rsep::sim::SimConfig>
configsOf(const std::vector<rsep::sim::Scenario> &scenarios);

/** The requests the workloads issue, as (scenarios, benchmarks). */
struct Request
{
    std::vector<rsep::sim::Scenario> scenarios;
    std::vector<std::string> benchmarks;
    std::string replayDir; ///< empty = live emulation.
    u64 seed = canonicalSeed;
};
Request fig4Request(const Sizing &sz, u64 seed);
Request sweepRequest(const Sizing &sz, u64 seed, const std::string &traces);
Request missRequest(const Sizing &sz, u64 seed, const std::string &traces);

/** Run a request in-process, no result cache. */
std::vector<rsep::sim::MatrixRow> runDirect(const Request &req,
                                            unsigned threads = jobs);

/** Canonical CSV stat dump (no timings) and its 16-hex digest. */
std::string canonicalDump(const Request &req,
                          const std::vector<rsep::sim::MatrixRow> &rows);
std::string digestOf(const std::string &dump);

/** Simulated instructions (warmup + measure) of a request. */
u64 requestInsts(const Request &req);

/** Stored digests and work counts (perfbench/reference.txt). */
class References
{
  public:
    bool load(const std::string &path, std::string *err);
    std::optional<std::string> get(const std::string &key) const;
    void set(const std::string &key, const std::string &value);
    bool save(const std::string &path) const;

  private:
    std::map<std::string, std::string> kv;
};

/** Reference key of a request kind ("fig4", "sweep", "miss"). */
std::string refKey(const Sizing &sz, const std::string &kind, u64 seed);

/**
 * Seeded order of repeated and novel requests. Requests come in
 * blocks of `period`; one request per block, at a seeded position, is
 * novel and takes the next unused pool seed (from a seeded offset);
 * the rest repeat the canonical request. Once the pool is used up
 * every request repeats.
 */
class Schedule
{
  public:
    Schedule(u64 seed, u32 period, u32 pool);
    /** Seed of request @p k (0-based, issued in order). */
    u64 seedOf(u64 k);
    static bool isNovel(u64 seed) { return seed != canonicalSeed; }

  private:
    rsep::Rng rng;
    u32 period, pool, offset;
    u32 novelUsed = 0;
    u32 novelSlot = 0; ///< novel position in the current block.
};

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The result line of a run. */
struct Report
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value);
    std::string json() const;
};

/** Linear-interpolated percentile (p in [0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Peak resident set of a process in MB (VmHWM); 0 when unreadable. */
double peakRssMb(int pid = 0);

/** Options of one run, from the command line. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string binDir;  ///< where rsep_serve and the client live.
    std::string workDir; ///< scratch directory inside the checkout.
};

/** Per-run state shared by a workload's stages. */
struct Context
{
    Options opt;
    Sizing sz;
    References refs;
    /** Store the traced runs' work counts instead of checking them. */
    bool makeReference = false;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
