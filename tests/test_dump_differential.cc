/**
 * @file
 * Differential test of the stat dump: the column-indexed collector and
 * sinks against a reference copy of the string-matching implementation
 * they replaced (per-row name lists, sorted per row, columns found by
 * name). Seeded synthetic matrices cover what a real sweep can produce
 * — arms whose engine sets differ, 1-3 checkpoints, timings on and off,
 * out-of-shard runs, names that need CSV/JSON escaping — and every
 * CSV, JSON and table dump, plus the rsep_merge parse/merge round
 * trips, must match the reference byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/rng.hh"
#include "sim/scenario.hh"
#include "sim/stat_merge.hh"

namespace rsep::sim
{
namespace
{

// ------------------------------------------------------------ reference

/** The string-matching dump, kept verbatim as the oracle. */
namespace reference
{

struct Row
{
    std::string benchmark;
    std::string scenario;
    std::string configHash;
    size_t checkpoints = 0;
    double ipcHmean = 0.0;
    std::vector<std::pair<std::string, u64>> counters;
};

std::vector<std::pair<std::string, u64>>
flattenCounters(const RunResult &rr)
{
    std::vector<std::pair<std::string, u64>> out;
    for (const PhaseResult &ph : rr.phases) {
        core::PipelineStats stats = ph.stats;
        size_t i = 0;
        visitStats(stats, [&](const char *name, StatCounter &c) {
            if (i == out.size())
                out.emplace_back(name, 0);
            out[i++].second += c.value();
        });
        const StatHistogram &h = stats.commitGroupProducers;
        for (size_t b = 0; b < h.buckets(); ++b) {
            std::string name =
                "commit_group_producers_" + std::to_string(b);
            if (i == out.size())
                out.emplace_back(name, 0);
            out[i++].second += h.bucket(b);
        }
        for (const auto &[name, value] : ph.engineStats) {
            auto it = std::find_if(
                out.begin() + static_cast<long>(i), out.end(),
                [&](const auto &p) { return p.first == name; });
            if (it == out.end())
                out.emplace_back(name, value);
            else
                it->second += value;
        }
    }
    return out;
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
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
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

void
canonicalize(std::vector<Row> &rows)
{
    for (Row &row : rows)
        std::sort(row.counters.begin(), row.counters.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    std::stable_sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.benchmark != b.benchmark)
            return a.benchmark < b.benchmark;
        if (a.scenario != b.scenario)
            return a.scenario < b.scenario;
        return a.configHash < b.configHash;
    });
}

std::vector<Row>
collect(const std::vector<SimConfig> &configs,
        const std::vector<MatrixRow> &rows, bool include_timings)
{
    std::vector<Row> out;
    for (const MatrixRow &mrow : rows) {
        for (size_t c = 0; c < mrow.byConfig.size() && c < configs.size();
             ++c) {
            const RunResult &rr = mrow.byConfig[c];
            if (!rr.inShard)
                continue;
            Row row;
            row.benchmark = mrow.benchmark;
            row.scenario = configs[c].label;
            row.configHash = configHash(configs[c]);
            row.checkpoints = rr.phases.size();
            row.ipcHmean = rr.ipcHmean();
            row.counters = flattenCounters(rr);
            if (include_timings) {
                RunTiming timing = rr.timing;
                visitStats(timing, [&](const char *name, StatCounter &c2) {
                    row.counters.emplace_back(name, c2.value());
                });
                for (size_t p = 0; p < rr.phases.size(); ++p)
                    row.counters.emplace_back(
                        "timing.phase" + std::to_string(p) +
                            "_wall_micros",
                        rr.phases[p].wallMicros);
            }
            out.push_back(std::move(row));
        }
    }
    canonicalize(out);
    return out;
}

std::string
table(const std::vector<Row> &rows, bool engines_only)
{
    std::ostringstream os;
    os << std::left << std::setw(12) << "benchmark" << std::setw(22)
       << "scenario" << std::setw(18) << "config-hash" << std::right
       << std::setw(7) << "ckpts" << std::setw(9) << "ipc" << "\n";
    for (const Row &row : rows) {
        os << std::left << std::setw(12) << row.benchmark << std::setw(22)
           << row.scenario << std::setw(18) << row.configHash
           << std::right << std::setw(7) << row.checkpoints << std::setw(9)
           << std::fixed << std::setprecision(3) << row.ipcHmean << "\n";
        os.unsetf(std::ios::fixed);
        for (const auto &[name, value] : row.counters) {
            if (engines_only && name.rfind("engine.", 0) != 0)
                continue;
            os << "    " << std::left << std::setw(40) << name
               << std::right << std::setw(16) << value << "\n";
        }
    }
    return os.str();
}

std::string
csv(const std::vector<Row> &rows)
{
    std::ostringstream os;
    std::vector<std::string> columns;
    for (const Row &row : rows)
        for (const auto &[name, value] : row.counters) {
            (void)value;
            if (std::find(columns.begin(), columns.end(), name) ==
                columns.end())
                columns.push_back(name);
        }

    os << "benchmark,scenario,config_hash,checkpoints,ipc_hmean";
    for (const std::string &col : columns)
        os << "," << csvEscape(col);
    os << "\n";

    for (const Row &row : rows) {
        os << csvEscape(row.benchmark) << "," << csvEscape(row.scenario)
           << "," << row.configHash << "," << row.checkpoints << ","
           << fmtDouble(row.ipcHmean);
        for (const std::string &col : columns) {
            os << ",";
            auto it = std::find_if(
                row.counters.begin(), row.counters.end(),
                [&](const auto &p) { return p.first == col; });
            if (it != row.counters.end())
                os << it->second;
        }
        os << "\n";
    }
    return os.str();
}

std::string
json(const std::vector<Row> &rows)
{
    std::ostringstream os;
    os << "[\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        const Row &row = rows[r];
        os << "  {\"benchmark\": \"" << jsonEscape(row.benchmark)
           << "\", \"scenario\": \"" << jsonEscape(row.scenario)
           << "\", \"config_hash\": \"" << row.configHash
           << "\", \"checkpoints\": " << row.checkpoints
           << ", \"ipc_hmean\": " << fmtDouble(row.ipcHmean)
           << ", \"counters\": {";
        for (size_t i = 0; i < row.counters.size(); ++i) {
            if (i)
                os << ", ";
            os << "\"" << jsonEscape(row.counters[i].first)
               << "\": " << row.counters[i].second;
        }
        os << "}}" << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

} // namespace reference

// ------------------------------------------------------ seeded matrices

/** A synthetic matrix: the shapes a real sweep produces, seeded. */
struct Matrix
{
    std::vector<SimConfig> configs;
    std::vector<MatrixRow> rows;
};

const std::vector<std::string> engineNamePool = {
    "engine.rsep.shared",           "engine.rsep.mispredicts",
    "engine.rsep.likelyCandidates", "engine.zero-idiom.eliminated",
    "engine.move-elim.eliminated",  "engine.dvtage.correct",
    "engine.odd,engine.count",      "engine.q\"uote.x",
    "engine.new\nline.y",           "engine.tab\tctl.z",
};

Matrix
seededMatrix(u64 seed)
{
    Rng rng(seed);
    Matrix m;

    const std::vector<std::string> labels = {"baseline", "rsep", "arm,comma",
                                             "quo\"te", "rsep"};
    size_t n_configs = 2 + rng.below(4);
    std::vector<std::vector<std::string>> engines(n_configs);
    for (size_t c = 0; c < n_configs; ++c) {
        SimConfig cfg = SimConfig::baseline();
        cfg.label = labels[rng.below(labels.size())];
        cfg.seed = rng.next();
        cfg.checkpoints = static_cast<u32>(1 + rng.below(3));
        m.configs.push_back(cfg);
        // Each arm registers its own engine subset, in engine (not
        // name) order.
        for (const std::string &name : engineNamePool)
            if (rng.below(2))
                engines[c].push_back(name);
        for (size_t i = engines[c].size(); i > 1; --i)
            std::swap(engines[c][i - 1], engines[c][rng.below(i)]);
    }

    const std::vector<std::string> benches = {"mcf", "hmmer", "we,ird",
                                              "a\"b", "namd"};
    size_t n_benches = 1 + rng.below(benches.size());
    for (size_t b = 0; b < n_benches; ++b) {
        MatrixRow mrow;
        mrow.benchmark = benches[b];
        for (size_t c = 0; c < n_configs; ++c) {
            RunResult rr;
            rr.benchmark = mrow.benchmark;
            rr.configLabel = m.configs[c].label;
            rr.inShard = rng.below(5) != 0;
            for (u32 p = 0; rr.inShard && p < m.configs[c].checkpoints;
                 ++p) {
                PhaseResult ph;
                visitStats(ph.stats, [&](const char *, StatCounter &ctr) {
                    ctr += rng.below(4) ? rng.below(1'000'000) : 0;
                });
                for (size_t k = 0; k < 12; ++k)
                    ph.stats.commitGroupProducers.sample(rng.below(12),
                                                         rng.below(50));
                for (const std::string &name : engines[c])
                    // Now and then a phase lacks a counter or reports
                    // it twice: the rows of one arm then differ.
                    for (u64 n = rng.below(10) ? 1 : rng.below(3); n--;)
                        ph.engineStats.emplace_back(name, rng.below(5000));
                if (!ph.engineStats.empty() && rng.below(6) == 0)
                    std::swap(ph.engineStats.front(),
                              ph.engineStats.back());
                ph.ipc = 0.05 + double(rng.below(40'000)) / 10'000.0;
                ph.wallMicros = rng.below(1'000'000);
                rr.phases.push_back(std::move(ph));
            }
            visitStats(rr.timing, [&](const char *, StatCounter &ctr) {
                ctr += rng.below(100'000);
            });
            mrow.byConfig.push_back(std::move(rr));
        }
        m.rows.push_back(std::move(mrow));
    }
    return m;
}

std::string
csvOf(const std::vector<StatRow> &rows)
{
    return CsvStatSink{}.render(rows);
}

std::string
jsonOf(const std::vector<StatRow> &rows)
{
    return JsonStatSink{}.render(rows);
}

constexpr u64 seeds = 60;

TEST(DumpDifferential, SinksMatchTheStringMatchingReference)
{
    for (u64 seed = 1; seed <= seeds; ++seed) {
        Matrix m = seededMatrix(seed);
        for (bool timings : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (timings ? " with timings" : ""));
            std::vector<reference::Row> want =
                reference::collect(m.configs, m.rows, timings);
            std::vector<StatRow> got =
                collectStatRows(m.configs, m.rows, timings);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(csvOf(got), reference::csv(want));
            EXPECT_EQ(jsonOf(got), reference::json(want));
            EXPECT_EQ(TableStatSink{true}.render(got),
                      reference::table(want, true));
            EXPECT_EQ(TableStatSink{false}.render(got),
                      reference::table(want, false));
        }
    }
}

TEST(DumpDifferential, MergeRoundTripsMatchTheReference)
{
    for (u64 seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Matrix m = seededMatrix(seed);
        std::vector<reference::Row> want =
            reference::collect(m.configs, m.rows, false);
        std::string want_csv = reference::csv(want);
        std::string want_json = reference::json(want);
        std::vector<StatRow> rows = collectStatRows(m.configs, m.rows);

        // Each format parses back to rows that re-emit the reference,
        // in its own format and in the other one.
        DumpParse from_csv = parseCsvDump(csvOf(rows), "d.csv");
        ASSERT_TRUE(from_csv.ok()) << from_csv.error;
        canonicalizeStatRows(from_csv.rows);
        EXPECT_EQ(csvOf(from_csv.rows), want_csv);
        EXPECT_EQ(jsonOf(from_csv.rows), want_json);
        DumpParse from_json = parseJsonDump(jsonOf(rows), "d.json");
        ASSERT_TRUE(from_json.ok()) << from_json.error;
        canonicalizeStatRows(from_json.rows);
        EXPECT_EQ(jsonOf(from_json.rows), want_json);
        EXPECT_EQ(csvOf(from_json.rows), want_csv);

        // Two shards dumped apart (each with its own column union and
        // schema) merge back into the reference dump.
        std::vector<std::vector<StatRow>> shards(2);
        for (size_t r = 0; r < rows.size(); ++r)
            shards[r % 2].push_back(rows[r]);
        std::vector<std::vector<StatRow>> parsed;
        for (size_t i = 0; i < shards.size(); ++i) {
            std::string text =
                i == 0 ? csvOf(shards[i]) : jsonOf(shards[i]);
            DumpParse p = parseDumpText(text, "shard");
            ASSERT_TRUE(p.ok()) << p.error;
            parsed.push_back(std::move(p.rows));
        }
        std::vector<StatRow> merged;
        ASSERT_EQ(mergeStatRows(parsed, {"s0", "s1"}, merged), "");
        EXPECT_EQ(csvOf(merged), want_csv);
        EXPECT_EQ(jsonOf(merged), want_json);
    }
}

TEST(DumpDifferential, NumberFormattingMatchesPrintf)
{
    // IPC edges: ties at the sixth and third decimal, tiny, large.
    const double ipcs[] = {0.0,       0.0078125, 1.0 / 3.0, 2.0005,
                           1e-9,      123456.789, 0.9999995, 4.125,
                           0.0625e-3, 9.9995};
    std::vector<reference::Row> want;
    std::vector<StatRow> got;
    for (double ipc : ipcs) {
        reference::Row r;
        r.benchmark = "b" + std::to_string(want.size());
        r.scenario = "s";
        r.configHash = "0123456789abcdef";
        r.checkpoints = 3;
        r.ipcHmean = ipc;
        r.counters = {{"cycles", ~u64{0}}, {"engine.x.y", 0}};
        want.push_back(r);
        StatRow row;
        row.benchmark = r.benchmark;
        row.scenario = r.scenario;
        row.configHash = r.configHash;
        row.checkpoints = r.checkpoints;
        row.ipcHmean = ipc;
        row.setCounters(r.counters);
        got.push_back(row);
    }
    EXPECT_EQ(csvOf(got), reference::csv(want));
    EXPECT_EQ(jsonOf(got), reference::json(want));
    EXPECT_EQ(TableStatSink{}.render(got), reference::table(want, true));
}

} // namespace
} // namespace rsep::sim
