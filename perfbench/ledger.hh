/**
 * @file
 * The span ledger of a traced run: one span per call into a layer,
 * recorded from the benchmark's own code around the public functions
 * of each module. Spans are kept in memory and written out once, when
 * the run ends.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

struct Span
{
    std::string name;   ///< "<layer>.<call>", e.g. "core.run_measure".
    double startMs = 0; ///< since the ledger was created.
    double endMs = 0;
    int parent = -1;    ///< index of the enclosing span; -1 = root.
    u64 request = 0;    ///< spans of one operation share this id.
};

/** Request id of set-up spans; operations use ids from 1, and the
 *  serve-mixed client requests ids from loopRequestBase. */
constexpr u64 setupRequest = 0;
constexpr u64 loopRequestBase = u64{1} << 20;

/** Thread-safe span store; indices stay valid as it grows. */
class Ledger
{
  public:
    Ledger() : origin(Clock::now()) {}

    int begin(const std::string &name, int parent, u64 request);
    /** End span @p id; returns its duration in ms. */
    double end(int id);

    /** Summed self time per layer (name up to the first '.'), over
     *  the spans whose request id is in @p requests. Self time is a
     *  span's duration minus the part its child spans cover. */
    std::map<std::string, double>
    selfMsByLayer(const std::set<u64> &requests) const;

    /** Summed duration of the spans named @p name. */
    double totalMs(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin;
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** RAII span: begins on construction, ends at close() or on
 *  destruction, whichever comes first. */
class Scope
{
  public:
    Scope(Ledger &l, const std::string &name, int parent, u64 request)
        : ledger(l), id(l.begin(name, parent, request))
    {
    }
    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** End the span; returns its duration in ms. */
    double
    close()
    {
        if (open) {
            open = false;
            ms = ledger.end(id);
        }
        return ms;
    }

    Ledger &ledger;
    const int id;

  private:
    bool open = true;
    double ms = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
