/**
 * @file
 * Set-up, checks and the serve-mixed closed loop, shared by the timed
 * runs (workloads.cc) and the traced runs (traced.cc).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hh"
#include "ledger.hh"
#include "proc.hh"

namespace perfbench
{

/** Resolve and build every workload of @p benches. */
void buildRegistry(const std::vector<std::string> &benches,
                   Ledger *ledger);

/** Bring up a live emulator at checkpoint 0 for each of @p benches:
 *  the program build and memory image every live cell starts from. */
void initEmulators(const std::vector<std::string> &benches,
                   Ledger *ledger);

/** Record the baseline traces of @p benches into @p dir. */
void recordTraces(const std::vector<std::string> &benches, const Sizing &sz,
                  const std::string &dir);

/** Trace directory of set-up @p setup, relative to the work dir. */
std::string tracesDir(int setup);

/** Compare a dump digest with the reference; reports a mismatch. */
bool matchesReference(const Context &ctx, const std::string &kind, u64 seed,
                      const std::string &digest);

/**
 * Steal from /proc/stat: the share of the VM's busy CPU time (all but
 * idle and iowait) that the hypervisor gave to other guests. Idle vCPUs
 * accrue no steal, so this, not the share of all CPU time, is how much
 * slower the running threads went. 0 where the host reports none.
 */
class StealMeter
{
  public:
    StealMeter() { lap(); }
    /** Steal share since the previous call (or construction). */
    double lap();

  private:
    u64 steal = 0, busy = 0;
};

/** One timed operation of a run. */
struct Op
{
    double ms = 0;      ///< latency.
    bool novel = false; ///< a miss: not a repeat of an earlier request.
    u64 insts = 0;      ///< simulated instructions it cost.
    /** Steal share while it ran; < 0: not read, use its segment's. */
    double steal = -1;
};

/** The order in which Timeline::report() keeps segments. */
enum class Rank
{
    /** Least-stolen first: for segments whose operations differ in
     *  cost (serve-mixed hits and misses). */
    Steal,
    /** Most operations per second the VM ran first: for segments of
     *  like operations (fig4-live passes, replay-sweep sweeps). */
    Speed,
};

/**
 * The timed window of a run, cut into segments, each with the steal
 * share the host showed while it ran. The window lasts at least
 * --seconds, then until each latency class has twice `minSamples`
 * operations or the ceiling (3 x --seconds, within [30 s, 100 s]) is
 * reached.
 *
 * On a shared VM, steal comes in episodes of tens of seconds, and
 * the running threads slow down by its share of their time: a whole
 * run moves by 10-40%. The host also runs slower without steal, for
 * stretches of 10-20 s. So the end-to-end figures come from the first
 * half of the segments in `Rank` order (plus more segments while a
 * latency class has fewer than `minSamples` operations in them), and
 * count only the time the VM ran: a segment's wall time times (1 - its
 * steal share), and an operation's latency times (1 - its own steal
 * share, or its segment's where it has none).
 * Thread-safe.
 */
class Timeline
{
  public:
    /** With @p segment_s > 0, a segment closes at the first add()
     *  @p segment_s after it opened, and its time is the wall time in
     *  between; with 0, the caller closes segments with cut(). */
    Timeline(const Context &ctx, double segment_s, Rank rank);

    bool more() const;
    void add(const Op &op);
    /** Close the open segment, which took @p timed_s of timed work. */
    void cut(double timed_s);
    /** Close the open segment and add every end-to-end metric:
     *  setup_s is the median of @p setup_s. */
    void report(Report &rep, const std::vector<double> &setup_s,
                double peak_rss_mb);

  private:
    struct Segment
    {
        double seconds = 0;
        double steal = 0;
        std::vector<Op> ops;
    };
    void cutLocked(double timed_s); ///< < 0: wall time since opened.

    const double seconds, cap, segmentS;
    const Rank rank;
    const size_t minSamples;
    const Clock::time_point t0;
    mutable std::mutex mu;
    StealMeter meter;
    Clock::time_point segStart;
    std::vector<Segment> done;
    Segment open;
    size_t hits = 0, misses = 0;
};

/** Length of a time segment of replay-sweep and serve-mixed. */
constexpr double segmentSeconds = 1.0;

/** Share of a run's segments its end-to-end figures come from. */
constexpr double keptShare = 0.5;

/** Number of set-ups a run times; setup_s is their median. */
constexpr int setupRepeats = 9;

/** One set-up of ctx.opt.workload in this process; returns seconds. */
double setupOnce(const Context &ctx);

/** Time `setupRepeats` set-ups, each in a fresh process (this program
 *  with --setup-only), so that setup_s includes the one-time
 *  initialisation a new process pays and does not depend on one
 *  process's memory layout. Like the timed window, each counts only
 *  the time the VM ran: its wall time times (1 - the steal share of
 *  the block of set-ups). */
std::vector<double> timeSetups(const Context &ctx);

/** One set-up of each workload; returns seconds (serve-mixed also
 *  returns the started daemon). With @p ledger, the registry build
 *  gets a "wl.registry" span. */
double setupFig4Live(const Context &ctx, Ledger *ledger);
double setupReplaySweep(const Context &ctx, int k, Ledger *ledger);
std::unique_ptr<Daemon> setupServeMixed(const Context &ctx, int k,
                                        double *setup_s, Ledger *ledger);

/** Untimed serve warm-up: fill the result cache with the canonical
 *  matrix and check a repeat; false when a request failed. */
bool warmServe(const Context &ctx, const Daemon &d);

/** What the serve-mixed closed loop saw. */
struct ServeLoop
{
    std::vector<double> serverMs, overheadMs, queueMs; ///< successes.
    u64 attempted = 0, failed = 0, retries = 0;
    /** Result-cache cells run and read by the first `countedRequests`
     *  requests of the schedule: fixed for a given sizing. */
    u64 cellsRun = 0, cached = 0;
    /** Daemon VmHWM once it served Sizing::rssAfterRequests timed
     *  requests (or at the end, if it served fewer). */
    double peakRssMb = 0;
    bool correct = true;
};

/** Two clients in a closed loop over the seeded request schedule,
 *  until @p tl says the window is over; each success is added to it.
 *  With @p ledger, each request gets a "serve.request" span. */
ServeLoop runServeLoop(const Context &ctx, const Daemon &d,
                       const std::string &traces, Timeline &tl,
                       Ledger *ledger);

// The runs main() dispatches to: timed (workloads.cc) and traced
// (traced.cc).
Report runFig4Live(Context &ctx);
Report runReplaySweep(Context &ctx);
Report runServeMixed(Context &ctx);
Report traceFig4Live(Context &ctx);
Report traceReplaySweep(Context &ctx);
Report traceServeMixed(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
