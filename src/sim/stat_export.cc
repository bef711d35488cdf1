#include "sim/stat_export.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <numeric>

#include "common/env.hh"
#include "sim/scenario.hh"

namespace rsep::sim
{

namespace
{

constexpr u32 noSlot = ~u32{0};

// --------------------------------------------------------- text output

/** @p v as printf's "%.<precision>f" would spell it. */
std::string
fixedPoint(double v, int precision)
{
    char buf[384]; // DBL_MAX spells 309 integer digits.
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::fixed, precision);
    return {buf, res.ptr};
}

void
appendCsvField(std::string &out, std::string_view s)
{
    if (s.find_first_of(",\"\n") == std::string_view::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

void
appendJsonString(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** @p s padded with spaces to @p width, left- or right-aligned. */
void
appendPadded(std::string &out, std::string_view s, size_t width, bool left)
{
    size_t pad = s.size() < width ? width - s.size() : 0;
    if (!left)
        out.append(pad, ' ');
    out += s;
    if (left)
        out.append(pad, ' ');
}

// ------------------------------------------------------- column union

/**
 * The CSV column set of a row set: the union of the rows' counters in
 * first-appearance order, each row contributing its present counters
 * by name. Names are matched once per (schema, slot), never per row.
 */
struct ColumnUnion
{
    std::vector<const std::string *> names; ///< column -> name.
    std::vector<const StatColumns *> schemas;
    /** Per schema: column -> slot of that schema (noSlot if absent). */
    std::vector<std::vector<u32>> slotByColumn;

    explicit ColumnUnion(const std::vector<StatRow> &rows)
    {
        std::vector<std::vector<u32>> colOf; // per schema: slot -> column.
        std::unordered_map<std::string_view, u32> index;
        for (const StatRow &row : rows) {
            if (!row.columns)
                continue;
            size_t k = schemaOf(row, colOf);
            std::vector<u32> &map = colOf[k];
            for (u32 s : row.columns->byName) {
                if (!row.present[s] || map[s] != noSlot)
                    continue;
                const std::string &name = row.columns->names[s];
                auto [it, fresh] = index.emplace(
                    name, static_cast<u32>(names.size()));
                if (fresh)
                    names.push_back(&name);
                map[s] = it->second;
            }
        }
        for (size_t k = 0; k < schemas.size(); ++k) {
            slotByColumn.emplace_back(names.size(), noSlot);
            for (u32 s = 0; s < colOf[k].size(); ++s)
                if (colOf[k][s] != noSlot &&
                    slotByColumn[k][colOf[k][s]] == noSlot)
                    slotByColumn[k][colOf[k][s]] = s;
        }
    }

    /** Index of @p row's schema (rows share a handful of schemas). */
    size_t
    schemaOf(const StatRow &row, std::vector<std::vector<u32>> &colOf)
    {
        const StatColumns *cols = row.columns.get();
        for (size_t k = schemas.size(); k-- > 0;)
            if (schemas[k] == cols)
                return k;
        schemas.push_back(cols);
        colOf.emplace_back(cols->size(), noSlot);
        return schemas.size() - 1;
    }

    const std::vector<u32> &
    slotsFor(const StatRow &row) const
    {
        size_t k = 0;
        while (schemas[k] != row.columns.get())
            ++k;
        return slotByColumn[k];
    }
};

// ------------------------------------------------------------- collect

/** Name of histogram bucket @p b, in @p buf. */
std::string_view
bucketName(char (&buf)[48], size_t b)
{
    static constexpr std::string_view prefix = "commit_group_producers_";
    std::copy(prefix.begin(), prefix.end(), buf);
    auto res = std::to_chars(buf + prefix.size(), buf + sizeof(buf), b);
    return {buf, static_cast<size_t>(res.ptr - buf)};
}

/** Sum every introspected pipeline counter, histogram bucket and
 *  engine-local counter over the phases of one run (plus the timing
 *  counters on request). Names repeat in one order across phases and
 *  runs of a config, so each is found at its hinted slot. */
void
flattenRun(const RunResult &rr, bool include_timings,
           StatColumnsBuilder &cols, StatRow &out)
{
    u32 next = 0;
    auto add = [&](std::string_view name, u64 v) {
        next = cols.slot(name, next);
        out.add(next++, v);
    };
    for (const PhaseResult &ph : rr.phases) {
        next = 0;
        visitStats(ph.stats, [&](const char *name, const StatCounter &c) {
            add(name, c.value());
        });
        const StatHistogram &h = ph.stats.commitGroupProducers;
        char buf[48];
        for (size_t b = 0; b < h.buckets(); ++b)
            add(bucketName(buf, b), h.bucket(b));
        for (const auto &[name, value] : ph.engineStats)
            add(name, value);
    }
    if (!include_timings)
        return;
    visitStats(rr.timing, [&](const char *name, const StatCounter &c) {
        add(name, c.value());
    });
    for (size_t p = 0; p < rr.phases.size(); ++p)
        add("timing.phase" + std::to_string(p) + "_wall_micros",
            rr.phases[p].wallMicros);
}

bool
rowKeyLess(const StatRow &a, const StatRow &b)
{
    if (a.benchmark != b.benchmark)
        return a.benchmark < b.benchmark;
    if (a.scenario != b.scenario)
        return a.scenario < b.scenario;
    return a.configHash < b.configHash;
}

} // namespace

// ------------------------------------------------------------- schema

StatColumns::StatColumns(std::vector<std::string> slot_names)
    : names(std::move(slot_names)), byName(names.size())
{
    std::iota(byName.begin(), byName.end(), 0u);
    std::stable_sort(byName.begin(), byName.end(),
                     [&](u32 a, u32 b) { return names[a] < names[b]; });
}

u32
StatColumnsBuilder::slot(std::string_view name, u32 hint)
{
    if (hint < names.size() && names[hint] == name)
        return hint;
    std::string key(name);
    auto [it, fresh] =
        index.emplace(std::move(key), static_cast<u32>(names.size()));
    if (fresh)
        names.push_back(it->first);
    return it->second;
}

std::shared_ptr<const StatColumns>
StatColumnsBuilder::finish()
{
    index.clear();
    return std::make_shared<const StatColumns>(std::move(names));
}

std::optional<u64>
StatRow::counter(std::string_view name) const
{
    for (size_t s = 0; columns && s < columns->size(); ++s)
        if (present[s] && columns->names[s] == name)
            return values[s];
    return std::nullopt;
}

void
StatRow::setCounters(const std::vector<std::pair<std::string, u64>> &counters)
{
    StatColumnsBuilder b;
    values.clear();
    present.clear();
    for (const auto &[name, value] : counters)
        add(b.slot(name), value);
    attach(b.finish());
}

void
StatRow::add(u32 slot, u64 v)
{
    if (slot >= values.size()) {
        values.resize(slot + 1, 0);
        present.resize(slot + 1, false);
    }
    values[slot] += v;
    present[slot] = true;
}

void
StatRow::attach(std::shared_ptr<const StatColumns> schema)
{
    columns = std::move(schema);
    values.resize(columns->size(), 0);
    present.resize(columns->size(), false);
}

void
canonicalizeStatRows(std::vector<StatRow> &rows)
{
    std::stable_sort(rows.begin(), rows.end(), rowKeyLess);
}

std::vector<StatRow>
collectStatRows(const std::vector<SimConfig> &configs,
                const std::vector<MatrixRow> &rows, bool include_timings)
{
    std::vector<std::string> hashes;
    for (const SimConfig &cfg : configs)
        hashes.push_back(configHash(cfg));

    std::vector<StatColumnsBuilder> builders(configs.size());
    std::vector<StatRow> out;
    std::vector<size_t> config_of;
    for (const MatrixRow &mrow : rows) {
        for (size_t c = 0; c < mrow.byConfig.size() && c < configs.size();
             ++c) {
            const RunResult &rr = mrow.byConfig[c];
            if (!rr.inShard)
                continue; // another shard's run; its dump has the row.
            StatRow row;
            row.benchmark = mrow.benchmark;
            row.scenario = configs[c].label;
            row.configHash = hashes[c];
            row.checkpoints = rr.phases.size();
            row.ipcHmean = rr.ipcHmean();
            // Sized to the schema so far: later runs of a config rarely
            // add a name.
            row.values.assign(builders[c].size(), 0);
            row.present.assign(builders[c].size(), false);
            flattenRun(rr, include_timings, builders[c], row);
            out.push_back(std::move(row));
            config_of.push_back(c);
        }
    }

    std::vector<std::shared_ptr<const StatColumns>> schemas;
    for (StatColumnsBuilder &b : builders)
        schemas.push_back(b.finish());
    for (size_t i = 0; i < out.size(); ++i)
        out[i].attach(schemas[config_of[i]]);
    canonicalizeStatRows(out);
    return out;
}

// --------------------------------------------------------------- sinks

std::string
TableStatSink::render(const std::vector<StatRow> &rows) const
{
    std::string out;
    appendPadded(out, "benchmark", 12, true);
    appendPadded(out, "scenario", 22, true);
    appendPadded(out, "config-hash", 18, true);
    appendPadded(out, "ckpts", 7, false);
    appendPadded(out, "ipc", 9, false);
    out += '\n';
    for (const StatRow &row : rows) {
        appendPadded(out, row.benchmark, 12, true);
        appendPadded(out, row.scenario, 22, true);
        appendPadded(out, row.configHash, 18, true);
        appendPadded(out, std::to_string(row.checkpoints), 7, false);
        appendPadded(out, fixedPoint(row.ipcHmean, 3), 9, false);
        out += '\n';
        row.forEachCounter([&](const std::string &name, u64 value) {
            if (enginesOnly && name.rfind("engine.", 0) != 0)
                return;
            out += "    ";
            appendPadded(out, name, 40, true);
            appendPadded(out, std::to_string(value), 16, false);
            out += '\n';
        });
    }
    return out;
}

std::string
CsvStatSink::render(const std::vector<StatRow> &rows) const
{
    // Union columns: runs under different mechanism arms register
    // different engines.
    ColumnUnion cols(rows);
    std::string out;
    out.reserve((rows.size() + 1) * (48 + cols.names.size() * 8));
    out += "benchmark,scenario,config_hash,checkpoints,ipc_hmean";
    for (const std::string *name : cols.names) {
        out += ',';
        appendCsvField(out, *name);
    }
    out += '\n';

    for (const StatRow &row : rows) {
        appendCsvField(out, row.benchmark);
        out += ',';
        appendCsvField(out, row.scenario);
        out += ',';
        out += row.configHash;
        out += ',';
        appendU64(out, row.checkpoints);
        out += ',';
        out += fixedPoint(row.ipcHmean, 6);
        if (!row.columns) {
            out.append(cols.names.size(), ',');
        } else {
            for (u32 s : cols.slotsFor(row)) {
                out += ',';
                if (s != noSlot && row.present[s])
                    appendU64(out, row.values[s]);
            }
        }
        out += '\n';
    }
    return out;
}

std::string
JsonStatSink::render(const std::vector<StatRow> &rows) const
{
    std::string out = "[\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        const StatRow &row = rows[r];
        out += "  {\"benchmark\": ";
        appendJsonString(out, row.benchmark);
        out += ", \"scenario\": ";
        appendJsonString(out, row.scenario);
        out += ", \"config_hash\": \"";
        out += row.configHash;
        out += "\", \"checkpoints\": ";
        appendU64(out, row.checkpoints);
        out += ", \"ipc_hmean\": ";
        out += fixedPoint(row.ipcHmean, 6);
        out += ", \"counters\": {";
        bool first = true;
        row.forEachCounter([&](const std::string &name, u64 value) {
            if (!first)
                out += ", ";
            first = false;
            appendJsonString(out, name);
            out += ": ";
            appendU64(out, value);
        });
        out += "}}";
        if (r + 1 < rows.size())
            out += ',';
        out += '\n';
    }
    out += "]\n";
    return out;
}

void
TimeSeriesSink::add(SampleSeriesHeader header,
                    std::vector<core::StatSample> rows)
{
    if (rows.empty())
        return;
    header.rows = rows.size();
    series.emplace_back(std::move(header), std::move(rows));
}

bool
TimeSeriesSink::flush(std::string *err)
{
    for (const auto &[header, rows] : series) {
        std::string path = samplePath(outDir, header.workload,
                                      header.configHash, header.phase);
        if (!writeSamplesFile(path, header, rows, err))
            return false;
        std::string csv_path =
            path.substr(0, path.size() - 4) + ".csv";
        std::ofstream os(csv_path, std::ios::trunc);
        if (!os) {
            if (err)
                *err = csv_path + ": cannot open for writing";
            return false;
        }
        writeSamplesCsv(os, header, rows);
        os.flush();
        if (!os) {
            if (err)
                *err = csv_path + ": write failed";
            return false;
        }
    }
    return true;
}

bool
writeStatsFile(const std::string &path, const StatSink &sink,
               const std::vector<StatRow> &rows, std::string *err)
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = path + ": cannot open for writing";
        return false;
    }
    sink.write(os, rows);
    os.flush();
    if (!os) {
        if (err)
            *err = path + ": write failed";
        return false;
    }
    return true;
}

} // namespace rsep::sim
