#include "sim/result_cache.hh"

#include <bit>
#include <filesystem>

#include "common/env.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/sealed_file.hh"
#include "core/pipeline.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{

ResultCache::ResultCache(std::string dir) : root(std::move(dir))
{
    if (root.empty())
        return;
    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec) {
        rsep_warn("cache-dir '%s': %s; caching disabled", root.c_str(),
                  ec.message().c_str());
        root.clear();
    }
}

std::string
ResultCache::cellPath(const CacheKey &key) const
{
    // One subdirectory per benchmark keeps directory sizes sane on a
    // full 29-benchmark x many-scenario sweep.
    return root + "/" + pathToken(key.benchmark) + "/" + key.configHash +
           "-p" + std::to_string(key.phase) + "-s" + hex64(key.seed) +
           ".cell";
}

namespace
{

bool
allHex(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    return true;
}

} // namespace

std::string
ResultCache::fileConfigHash(const std::string &filename)
{
    // The inverse of the cellPath naming just above:
    // <16-hex config hash>-p<digits>-s<16-hex seed>.cell
    constexpr const char *ext = ".cell";
    if (filename.size() < 16 + 2 + 1 + 2 + 16 + 5)
        return {};
    if (filename.substr(filename.size() - 5) != ext)
        return {};
    std::string stem = filename.substr(0, filename.size() - 5);
    std::string hash = stem.substr(0, 16);
    if (!allHex(hash) || stem.size() < 17 || stem[16] != '-' ||
        stem[17] != 'p')
        return {};
    size_t sdash = stem.rfind("-s");
    if (sdash == std::string::npos || sdash < 18)
        return {};
    if (!allDigits(stem.substr(18, sdash - 18)))
        return {};
    if (!allHex(stem.substr(sdash + 2)) || stem.size() - (sdash + 2) != 16)
        return {};
    return hash;
}

namespace
{

/** "<k1><k2> = <v>\n" appended to @p out. */
void
appendField(std::string &out, std::string_view k1, std::string_view k2,
            u64 v)
{
    out += k1;
    out += k2;
    out += " = ";
    appendU64(out, v);
    out += '\n';
}

/** Lines of a record, with std::getline's edges: a last line without
 *  its '\n' is still a line; nothing after a final '\n' is. */
struct LineCursor
{
    std::string_view text;
    size_t pos = 0;

    bool
    next(std::string_view &line)
    {
        if (pos >= text.size())
            return false;
        size_t nl = text.find('\n', pos);
        size_t end = nl == std::string_view::npos ? text.size() : nl;
        line = text.substr(pos, end - pos);
        pos = end + 1;
        return true;
    }
};

/** The value of a "<k1><k2> = <value>" line. */
bool
valueOf(std::string_view line, std::string_view k1, std::string_view k2,
        std::string_view &v)
{
    size_t n = k1.size() + k2.size();
    if (line.size() < n + 3 || line.substr(0, k1.size()) != k1 ||
        line.substr(k1.size(), k2.size()) != k2 ||
        line.substr(n, 3) != " = ")
        return false;
    v = line.substr(n + 3);
    return true;
}

} // namespace

std::string
ResultCache::serializeRecord(const CacheKey &key, const PhaseResult &pr)
{
    std::string out;
    out.reserve(2048);
    out += "rsep-cell-cache ";
    appendU64(out, resultCacheVersion);
    out += "\nbenchmark = ";
    out += key.benchmark;
    out += "\nconfig_hash = ";
    out += key.configHash;
    out += '\n';
    appendField(out, "phase", "", key.phase);
    out += "seed = ";
    appendHex64(out, key.seed);
    // The IPC is stored bit-exactly: a cache hit must reproduce the
    // dump of the run that filled the cache byte for byte.
    out += "\nipc_bits = ";
    appendHex64(out, std::bit_cast<u64>(pr.ipc));
    out += '\n';
    appendField(out, "wall_micros", "", pr.wallMicros);

    visitStats(pr.stats, [&](const char *name, const StatCounter &c) {
        appendField(out, "stat ", name, c.value());
    });
    const StatHistogram &h = pr.stats.commitGroupProducers;
    out += "hist commit_group_producers ";
    appendU64(out, h.buckets());
    out += '\n';
    for (size_t b = 0; b < h.buckets(); ++b) {
        out += "bucket ";
        appendU64(out, b);
        out += " = ";
        appendU64(out, h.bucket(b));
        out += '\n';
    }
    for (const auto &[name, value] : pr.engineStats)
        appendField(out, "engine ", name, value);
    return out;
}

std::string
ResultCache::parseRecord(std::string_view text, const CacheKey &key,
                         PhaseResult &out)
{
    LineCursor lines{text};
    std::string_view line, v;

    auto header = [](std::string_view prefix, u64 n) {
        std::string want(prefix);
        appendU64(want, n);
        return want;
    };

    if (!lines.next(line) ||
        line != header("rsep-cell-cache ", resultCacheVersion))
        return "bad or unsupported record version";

    // Key echo: a record reached through the wrong filename (copied
    // caches, hash collisions) must not be served.
    u64 seed = 0;
    if (!lines.next(line) || !valueOf(line, "benchmark", "", v) ||
        v != key.benchmark)
        return "benchmark echo mismatch";
    if (!lines.next(line) || !valueOf(line, "config_hash", "", v) ||
        v != key.configHash)
        return "config-hash echo mismatch";
    if (!lines.next(line) || !valueOf(line, "phase", "", v) ||
        v != header("", key.phase))
        return "phase echo mismatch";
    if (!lines.next(line) || !valueOf(line, "seed", "", v) ||
        !parseHex64(v, seed) || seed != key.seed)
        return "seed echo mismatch";

    PhaseResult pr;
    pr.fromCache = true;
    u64 bits = 0;
    if (!lines.next(line) || !valueOf(line, "ipc_bits", "", v) ||
        !parseHex64(v, bits))
        return "bad ipc_bits";
    pr.ipc = std::bit_cast<double>(bits);
    if (!lines.next(line) || !valueOf(line, "wall_micros", "", v) ||
        !parseU64(v, pr.wallMicros))
        return "bad wall_micros";

    // Pipeline counters: the record must carry exactly the counter set
    // this binary introspects — a mismatch means the stat layout
    // drifted since the record was written.
    std::string err;
    visitStats(pr.stats, [&](const char *name, StatCounter &c) {
        if (!err.empty())
            return;
        if (!lines.next(line) || !valueOf(line, "stat ", name, v)) {
            err = std::string("missing counter '") + name + "'";
            return;
        }
        u64 val = 0;
        if (!parseU64(v, val)) {
            err = std::string("bad value for counter '") + name + "'";
            return;
        }
        c.reset();
        c += val;
    });
    if (!err.empty())
        return err;

    StatHistogram &h = pr.stats.commitGroupProducers;
    if (!lines.next(line) ||
        line != header("hist commit_group_producers ", h.buckets()))
        return "histogram geometry mismatch";
    for (size_t b = 0; b < h.buckets(); ++b) {
        if (!lines.next(line) ||
            !valueOf(line, "bucket ", header("", b), v))
            return "missing histogram bucket " + std::to_string(b);
        u64 val = 0;
        if (!parseU64(v, val))
            return "bad histogram bucket " + std::to_string(b);
        if (val)
            h.sample(b, val);
    }

    while (lines.next(line)) {
        if (line.substr(0, 7) != "engine ")
            return "unexpected trailing line '" + std::string(line) + "'";
        size_t eq = line.rfind(" = ");
        if (eq == std::string_view::npos || eq <= 7)
            return "malformed engine counter line";
        u64 val = 0;
        if (!parseU64(line.substr(eq + 3), val))
            return "bad engine counter value";
        pr.engineStats.emplace_back(line.substr(7, eq - 7), val);
    }

    out = std::move(pr);
    return {};
}

std::optional<PhaseResult>
ResultCache::load(const CacheKey &key)
{
    if (!enabled())
        return std::nullopt;
    std::string path = cellPath(key);
    MmapFile file;
    std::string_view text;
    std::string io_err;
    if (!readFile(path, file, text, io_err)) {
        ++nMisses;
        return std::nullopt;
    }

    auto quarantine = [&](const std::string &why) {
        std::error_code ec;
        fs::rename(path, path + ".corrupt", ec);
        if (ec) {
            // Rename failed (e.g. a racing quarantine won); removing is
            // an acceptable fallback — the cell just re-simulates.
            fs::remove(path, ec);
        }
        ++nQuarantined;
        ++nMisses;
        rsep_warn("result cache: quarantined %s (%s)", path.c_str(),
                  why.c_str());
        return std::nullopt;
    };

    // Outer envelope: "<body>checksum = <fnv1a64(body)>\n".
    size_t mark = text.rfind("checksum = ");
    if (mark == std::string_view::npos || text.back() != '\n')
        return quarantine("missing checksum");
    std::string_view body = text.substr(0, mark);
    std::string_view sum = text.substr(mark + 11, text.size() - mark - 12);
    u64 want = 0;
    if (!parseHex64(sum, want) || fnv1a64(body) != want)
        return quarantine("checksum mismatch");

    PhaseResult pr;
    std::string err = parseRecord(body, key, pr);
    if (!err.empty())
        return quarantine(err);
    ++nHits;
    return pr;
}

bool
ResultCache::store(const CacheKey &key, const PhaseResult &pr)
{
    if (!enabled())
        return false;
    std::string record = serializeRecord(key, pr);
    u64 sum = fnv1a64(record);
    record += "checksum = ";
    appendHex64(record, sum);
    record += '\n';
    // "cache.write": errno and short modes fail the store (the cell
    // stays uncached); truncate *publishes* the torn record, silent
    // on-disk corruption the next load() must catch and quarantine.
    // "cache.rename" fails the publish step itself.
    if (!publishFile(cellPath(key), record, "cache.write", "cache.rename",
                     nullptr)) {
        ++nIoErrors;
        return false;
    }
    ++nStores;
    return true;
}

ResultCache::Counters
ResultCache::counters() const
{
    Counters c;
    c.hits = nHits.load();
    c.misses = nMisses.load();
    c.stores = nStores.load();
    c.quarantined = nQuarantined.load();
    c.ioErrors = nIoErrors.load();
    return c;
}

} // namespace rsep::sim
