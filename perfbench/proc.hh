/**
 * @file
 * Child processes of serve-mixed: one rsep_serve daemon and the
 * bench_fig4_speedup `--connect` clients that query it.
 *
 * Children run in the work directory (so socket, cache and trace paths
 * stay short and relative), with RSEP_* variables removed from their
 * environment, stdout discarded and stderr kept in a file that is
 * parsed after they exit.
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Start @p argv in @p cwd with stderr to @p err_path and stdout to
 *  @p out_path (both relative to @p cwd; no @p out_path = discard).
 *  Returns the pid, or -1 when vfork fails. */
pid_t spawn(const std::vector<std::string> &argv, const std::string &cwd,
            const std::string &err_path, const std::string &out_path = "");

/** Wait for @p pid; returns its exit code (128 + signal if killed). */
int waitExit(pid_t pid);

/** One rsep_serve process with its own socket and result cache. */
class Daemon
{
  public:
    /** @p tag names the socket, cache directory and log. */
    Daemon(const Options &opt, int tag);
    ~Daemon(); ///< kills the daemon if still running.

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Spawn and wait until it answers a Hello; false + @p err. */
    bool start(std::string *err);
    /** SIGTERM and wait for the drain; returns the Busy rejections
     *  the daemon reports in its shutdown summary. */
    u64 stop();

    double peakRssMb() const;
    const std::string &socket() const { return sock; }
    const std::string &cacheDir() const { return cache; }

  private:
    const Options &opt;
    std::string sock, cache, log;
    pid_t pid = -1;
};

/** What one client request returned. */
struct ClientResult
{
    int exitCode = -1;
    double latencyMs = 0;  ///< fork to exit, as the caller sees it.
    bool done = false;     ///< the client printed its done line.
    double serverMs = 0;   ///< daemon-reported submit-to-last-cell.
    double queueMs = 0;    ///< daemon-reported submit-to-first-cell.
    u64 cellsRun = 0;
    u64 cached = 0;
    u32 retries = 0;
    bool busy = false;     ///< a Busy reply was seen.
    std::string digest;    ///< of the exported CSV; empty if missing.
};

/** The files a client request reads: scenario text, benchmarks. */
struct ClientJob
{
    std::string scnFile;   ///< relative to the work directory.
    std::string workloads; ///< comma-separated benchmark list.
    std::string replayDir; ///< empty = live emulation.
    u64 seed = canonicalSeed;
};

/** Run one `--connect` request from client slot @p slot and wait. */
ClientResult runClient(const Options &opt, const Daemon &d,
                       const ClientJob &job, unsigned slot);

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
