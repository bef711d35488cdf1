/**
 * @file
 * Unified stat-export layer: flatten an experiment matrix into rows
 * keyed by (benchmark, scenario name, config hash) and write them
 * through a pluggable StatSink (human table, CSV, JSON). Counters
 * cover every PipelineStats field (via its visitStats introspection
 * hook) plus the per-engine SpeculationEngine::statEntries() snapshots
 * — the machine-readable matrix dump behind `--csv` / `--json`. Rows
 * carry counter values by slot of a shared column schema; no sink
 * matches counter names per row.
 */

#ifndef RSEP_SIM_STAT_EXPORT_HH
#define RSEP_SIM_STAT_EXPORT_HH

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/runner.hh"
#include "sim/sample_io.hh"

namespace rsep::sim
{

/**
 * The counter schema a set of rows shares: counter names by slot, and
 * the slots in canonical (name) order. Built once — per config by the
 * collector, per dump by the parsers — and immutable after; rows point
 * at it and carry only values. Slot order carries no meaning of its
 * own: the CSV sink derives its column order from the rows.
 */
struct StatColumns
{
    std::vector<std::string> names; ///< slot -> counter name.
    std::vector<u32> byName;        ///< slots sorted by name.

    explicit StatColumns(std::vector<std::string> slot_names);

    size_t size() const { return names.size(); }
};

/**
 * Assigns slots to counter names while rows are being filled, then
 * freezes into the StatColumns those rows share.
 */
class StatColumnsBuilder
{
  public:
    /** Slot of @p name, appended when new. @p hint is the slot the
     *  caller expects (names usually repeat in one order), checked
     *  before the index. */
    u32 slot(std::string_view name, u32 hint = 0);

    size_t size() const { return names.size(); }

    std::shared_ptr<const StatColumns> finish();

  private:
    std::vector<std::string> names;
    std::unordered_map<std::string, u32> index;
};

/** One (benchmark, scenario) cell of the matrix, flattened. */
struct StatRow
{
    std::string benchmark;
    std::string scenario;   ///< config label (scenario name).
    std::string configHash; ///< stable 16-hex config identity.
    size_t checkpoints = 0;
    double ipcHmean = 0.0;
    /** Counter schema: pipeline counters, commit_group_producers_<b>
     *  histogram buckets, engine.* and — only when timings were
     *  requested — timing.*. Null for a row without counters. */
    std::shared_ptr<const StatColumns> columns;
    /** Counter values by slot of @p columns (summed over checkpoints),
     *  and the presence mask: a merged dump can lack a column in some
     *  rows. Both are sized to the schema. */
    std::vector<u64> values;
    std::vector<bool> present;

    /** Value of counter @p name; nullopt when the row lacks it. A
     *  linear scan: for tests and tools, not for per-row work. */
    std::optional<u64> counter(std::string_view name) const;

    /** Visit the present counters in canonical (name) order as
     *  f(const std::string &name, u64 value). */
    template <class F>
    void
    forEachCounter(F &&f) const
    {
        if (!columns)
            return;
        for (u32 s : columns->byName)
            if (present[s])
                f(columns->names[s], values[s]);
    }

    /** Add @p v to slot @p slot while the schema is still being
     *  built (the row grows to the slot). */
    void add(u32 slot, u64 v);

    /** Attach the finished schema, sizing the row to it. */
    void attach(std::shared_ptr<const StatColumns> schema);

    /** Replace the counters with @p counters under a schema of this
     *  row's own (for rows built by hand). */
    void setCounters(
        const std::vector<std::pair<std::string, u64>> &counters);
};

/**
 * Canonical dump order: rows sorted by (benchmark, scenario, config
 * hash); counters within a row are always visited by name. Both the
 * collector and the merge tool normalise through this, which is what
 * makes a sharded-and-merged dump byte-identical to the unsharded one.
 */
void canonicalizeStatRows(std::vector<StatRow> &rows);

/**
 * Flatten runMatrix output into canonical rows. @p configs parallels
 * MatrixRow::byConfig; each config's column schema is built once and
 * shared by its rows. Runs owned by another shard (inShard = false)
 * produce no row. @p include_timings adds the host-dependent timing.*
 * counters (RunTiming) — off by default so dumps of the same matrix
 * are bit-reproducible across runs, shards and cache temperatures.
 */
std::vector<StatRow>
collectStatRows(const std::vector<SimConfig> &configs,
                const std::vector<MatrixRow> &rows,
                bool include_timings = false);

/** A stat-export format. Sinks render into one buffer. */
class StatSink
{
  public:
    virtual ~StatSink() = default;
    virtual std::string render(const std::vector<StatRow> &rows) const = 0;

    void
    write(std::ostream &os, const std::vector<StatRow> &rows) const
    {
        std::string text = render(rows);
        os.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
};

/** Human-readable per-cell dump (the `--stats` matrix table). */
class TableStatSink : public StatSink
{
  public:
    /** @p engines_only drops the (many) raw pipeline counters and
     *  keeps the per-engine ones. */
    explicit TableStatSink(bool engines_only = true)
        : enginesOnly(engines_only)
    {
    }
    std::string render(const std::vector<StatRow> &rows) const override;

  private:
    bool enginesOnly;
};

/** RFC-4180-style CSV; one column per counter: the union across rows,
 *  in first-appearance order of the rows' canonical counters. */
class CsvStatSink : public StatSink
{
  public:
    std::string render(const std::vector<StatRow> &rows) const override;
};

/** JSON array of row objects with a nested "counters" map. */
class JsonStatSink : public StatSink
{
  public:
    std::string render(const std::vector<StatRow> &rows) const override;
};

/** Write rows to @p path; false + @p err on I/O failure. */
bool writeStatsFile(const std::string &path, const StatSink &sink,
                    const std::vector<StatRow> &rows,
                    std::string *err = nullptr);

/**
 * Export sink of the time-series sampling mode (`--sample-every`):
 * collects per-cell StatSample series during a matrix run and flushes
 * each to `<dir>/<bench>-<confighash>-p<phase>.rts` (atomic, see
 * sample_io.hh) plus a sibling `.csv` for direct plotting. One cell =
 * one file, so sharded runs compose by directory union exactly like
 * recorded traces, and `rsep_samples merge` pools shards' series the
 * way rsep_merge pools stat dumps.
 *
 * Not thread-safe: the matrix runner queues cells post-barrier on the
 * coordinating thread (sample rows are deterministic, so the flush
 * order never affects file contents).
 */
class TimeSeriesSink
{
  public:
    explicit TimeSeriesSink(std::string dir) : outDir(std::move(dir)) {}

    const std::string &dir() const { return outDir; }
    size_t queued() const { return series.size(); }

    /** Queue one cell's series (empty series are dropped — a cell
     *  below one sample period still flushes its final partial row,
     *  so empty means sampling was off for the cell). */
    void add(SampleSeriesHeader header,
             std::vector<core::StatSample> rows);

    /** Write every queued series; returns the number of files written
     *  (`.rts` count) or fails fast with @p err. */
    bool flush(std::string *err = nullptr);

  private:
    std::string outDir;
    std::vector<std::pair<SampleSeriesHeader,
                          std::vector<core::StatSample>>>
        series;
};

} // namespace rsep::sim

#endif // RSEP_SIM_STAT_EXPORT_HH
