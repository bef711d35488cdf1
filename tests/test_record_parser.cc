/**
 * @file
 * Diagnostics test of the one-pass `.cell` record parser: every
 * truncation point and every mangled field of one record must get
 * exactly the error string of a reference copy of the line-stream
 * parser it replaced (or, where that parser accepts, the same
 * PhaseResult), and a cache holding the mangled records must
 * quarantine exactly the ones the reference rejects.
 */

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/env.hh"
#include "common/fnv.hh"
#include "core/pipeline.hh"
#include "sim/result_cache.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{
namespace
{

/** The istringstream parser, kept verbatim as the oracle. */
std::string
referenceParse(const std::string &text, const CacheKey &key,
               PhaseResult &out)
{
    std::istringstream is(text);
    std::string line;

    auto valueOf = [&](const std::string &l, const char *k,
                       std::string &v) {
        std::string prefix = std::string(k) + " = ";
        if (l.rfind(prefix, 0) != 0)
            return false;
        v = l.substr(prefix.size());
        return true;
    };

    if (!std::getline(is, line) ||
        line != "rsep-cell-cache " + std::to_string(resultCacheVersion))
        return "bad or unsupported record version";

    std::string v;
    u64 seed = 0;
    if (!std::getline(is, line) || !valueOf(line, "benchmark", v) ||
        v != key.benchmark)
        return "benchmark echo mismatch";
    if (!std::getline(is, line) || !valueOf(line, "config_hash", v) ||
        v != key.configHash)
        return "config-hash echo mismatch";
    if (!std::getline(is, line) || !valueOf(line, "phase", v) ||
        v != std::to_string(key.phase))
        return "phase echo mismatch";
    if (!std::getline(is, line) || !valueOf(line, "seed", v) ||
        !parseHex64(v, seed) || seed != key.seed)
        return "seed echo mismatch";

    PhaseResult pr;
    pr.fromCache = true;
    u64 bits = 0;
    if (!std::getline(is, line) || !valueOf(line, "ipc_bits", v) ||
        !parseHex64(v, bits))
        return "bad ipc_bits";
    pr.ipc = std::bit_cast<double>(bits);
    if (!std::getline(is, line) || !valueOf(line, "wall_micros", v) ||
        !parseU64(v, pr.wallMicros))
        return "bad wall_micros";

    std::string err;
    visitStats(pr.stats, [&](const char *name, StatCounter &c) {
        if (!err.empty())
            return;
        std::string sv;
        if (!std::getline(is, line) ||
            !valueOf(line, (std::string("stat ") + name).c_str(), sv)) {
            err = std::string("missing counter '") + name + "'";
            return;
        }
        u64 val = 0;
        if (!parseU64(sv, val)) {
            err = std::string("bad value for counter '") + name + "'";
            return;
        }
        c.reset();
        c += val;
    });
    if (!err.empty())
        return err;

    StatHistogram &h = pr.stats.commitGroupProducers;
    if (!std::getline(is, line) ||
        line != "hist commit_group_producers " +
                    std::to_string(h.buckets()))
        return "histogram geometry mismatch";
    for (size_t b = 0; b < h.buckets(); ++b) {
        std::string sv;
        if (!std::getline(is, line) ||
            !valueOf(line, ("bucket " + std::to_string(b)).c_str(), sv))
            return "missing histogram bucket " + std::to_string(b);
        u64 val = 0;
        if (!parseU64(sv, val))
            return "bad histogram bucket " + std::to_string(b);
        if (val)
            h.sample(b, val);
    }

    while (std::getline(is, line)) {
        if (line.rfind("engine ", 0) != 0)
            return "unexpected trailing line '" + line + "'";
        size_t eq = line.rfind(" = ");
        if (eq == std::string::npos || eq <= 7)
            return "malformed engine counter line";
        u64 val = 0;
        if (!parseU64(line.substr(eq + 3), val))
            return "bad engine counter value";
        pr.engineStats.emplace_back(line.substr(7, eq - 7), val);
    }

    out = std::move(pr);
    return {};
}

/** Everything a record carries, as one comparable string. */
std::string
digestOf(const PhaseResult &pr)
{
    std::ostringstream os;
    os << std::bit_cast<u64>(pr.ipc) << ' ' << pr.wallMicros << ' '
       << pr.fromCache;
    visitStats(pr.stats, [&](const char *name, const StatCounter &c) {
        os << ' ' << name << '=' << c.value();
    });
    const StatHistogram &h = pr.stats.commitGroupProducers;
    for (size_t b = 0; b < h.buckets(); ++b)
        os << " b" << b << '=' << h.bucket(b);
    os << " n=" << h.samples() << " mean=" << h.mean();
    for (const auto &[name, value] : pr.engineStats)
        os << ' ' << name << '=' << value;
    return os.str();
}

PhaseResult
sampleResult()
{
    PhaseResult pr;
    pr.ipc = 1.2345;
    pr.wallMicros = 6789;
    u64 v = 1;
    visitStats(pr.stats, [&](const char *, StatCounter &c) { c += v++ * 31; });
    StatHistogram &h = pr.stats.commitGroupProducers;
    for (size_t b = 0; b < h.buckets(); ++b)
        h.sample(b, b % 3 ? b + 1 : 0);
    pr.engineStats = {{"engine.rsep.shared", 41},
                      {"engine.zero-idiom.eliminated", 0},
                      {"engine.odd = name", 12}};
    return pr;
}

/** The record with line @p i replaced by @p line (nullptr: dropped). */
std::string
withLine(const std::vector<std::string> &lines, size_t i,
         const std::string *line)
{
    std::string out;
    for (size_t k = 0; k < lines.size(); ++k) {
        if (k == i) {
            if (line)
                out += *line + "\n";
        } else {
            out += lines[k] + "\n";
        }
    }
    return out;
}

/** Every truncation point and every mangled field of @p body. */
std::vector<std::string>
abusedRecords(const std::string &body)
{
    std::vector<std::string> out;
    for (size_t n = 0; n <= body.size(); ++n)
        out.push_back(body.substr(0, n));

    std::vector<std::string> lines;
    std::istringstream is(body);
    for (std::string l; std::getline(is, l);)
        lines.push_back(l);

    const std::vector<std::string> values = {
        "",     "x",    "-1",     " 7",   "7 ",  "0x1f", "012",
        "+5",   "1e3",  "7\r",    "0",    "00",  "ffffffffffffffff",
        "fffffffffffffffff",      "18446744073709551615",
        "18446744073709551616",   "99999999999999999999",
        "1234567890123456789",    "DEADBEEF"};
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        out.push_back(withLine(lines, i, nullptr));
        std::string dup = l + "\n" + l;
        out.push_back(withLine(lines, i, &dup));
        std::string cr = l + "\r";
        out.push_back(withLine(lines, i, &cr));
        std::string blank = l + "\n";
        out.push_back(withLine(lines, i, &blank));
        for (size_t k : {size_t{0}, l.size() / 2, l.size() - 1}) {
            std::string flip = l;
            flip[k] ^= 0x20;
            out.push_back(withLine(lines, i, &flip));
        }
        size_t eq = l.rfind(" = ");
        size_t sp = l.rfind(' ');
        size_t at = eq != std::string::npos ? eq + 3 : sp + 1;
        for (const std::string &v : values) {
            std::string mangled = l.substr(0, at) + v;
            out.push_back(withLine(lines, i, &mangled));
        }
        if (eq != std::string::npos) {
            std::string no_eq = l.substr(0, eq) + " =" + l.substr(eq + 3);
            out.push_back(withLine(lines, i, &no_eq));
            std::string no_key = l.substr(eq);
            out.push_back(withLine(lines, i, &no_key));
        }
    }
    return out;
}

TEST(RecordParser, DiagnosticsMatchTheLineStreamReference)
{
    CacheKey key{"hmmer", "0123456789abcdef", 2, 0x5eedull};
    PhaseResult pr = sampleResult();
    std::string body = ResultCache::serializeRecord(key, pr);

    size_t rejected = 0;
    std::vector<std::string> cases = abusedRecords(body);
    for (const std::string &text : cases) {
        PhaseResult want, got;
        std::string want_err = referenceParse(text, key, want);
        std::string got_err = ResultCache::parseRecord(text, key, got);
        ASSERT_EQ(got_err, want_err) << "record:\n" << text;
        if (want_err.empty())
            EXPECT_EQ(digestOf(got), digestOf(want)) << "record:\n" << text;
        else
            ++rejected;
    }
    // The abuse must exercise both verdicts.
    EXPECT_GT(rejected, cases.size() / 2);
    EXPECT_LT(rejected, cases.size());

    // Wrong keys are diagnosed the same way too.
    for (CacheKey other : {CacheKey{"mcf", key.configHash, 2, key.seed},
                           CacheKey{key.benchmark, "fedcba9876543210", 2,
                                    key.seed},
                           CacheKey{key.benchmark, key.configHash, 3,
                                    key.seed},
                           CacheKey{key.benchmark, key.configHash, 2, 7}}) {
        PhaseResult a, b;
        EXPECT_EQ(ResultCache::parseRecord(body, other, a),
                  referenceParse(body, other, b));
    }
}

TEST(RecordParser, QuarantineCountsMatchTheReference)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_record_parser_" + std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    ResultCache cache(dir);
    CacheKey key{"hmmer", "0123456789abcdef", 2, 0x5eedull};
    std::string body = ResultCache::serializeRecord(key, sampleResult());

    fs::create_directories(fs::path(cache.cellPath(key)).parent_path());
    u64 want_quarantined = 0;
    std::vector<std::string> cases = abusedRecords(body);
    for (const std::string &text : cases) {
        PhaseResult ref;
        if (!referenceParse(text, key, ref).empty())
            ++want_quarantined;
        // A valid envelope around the abused body: only the parser
        // decides.
        std::ofstream(cache.cellPath(key), std::ios::binary | std::ios::trunc)
            << text << "checksum = " << hex64(fnv1a64(text)) << "\n";
        cache.load(key);
    }
    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.quarantined, want_quarantined);
    EXPECT_EQ(c.hits + c.misses, cases.size());
    EXPECT_EQ(c.hits, cases.size() - want_quarantined);
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep::sim
