/**
 * @file
 * Result-cache tests: record serialization round-trips a PhaseResult
 * exactly, hits/misses behave, every corruption mode (garbage,
 * truncation, version drift, wrong-key echo) quarantines instead of
 * serving bad data, and a warm-cache runMatrix re-simulates nothing
 * while producing bit-identical results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/fault.hh"
#include "common/fnv.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"

namespace fs = std::filesystem;

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 1'000;
    c.measureInsts = 3'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

/** A scratch cache directory, removed on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("rsep-cache-test-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter()++)))
                   .string();
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

void
expectSamePhase(const PhaseResult &a, const PhaseResult &b)
{
    EXPECT_EQ(a.ipc, b.ipc); // bit-equal, not approximately.
    core::PipelineStats sa = a.stats, sb = b.stats;
    visitStats(sa, [&](const char *name, StatCounter &c) {
        u64 other = 0;
        visitStats(sb, [&](const char *n2, StatCounter &c2) {
            if (std::string(name) == n2)
                other = c2.value();
        });
        EXPECT_EQ(c.value(), other) << name;
    });
    for (size_t i = 0; i < sa.commitGroupProducers.buckets(); ++i)
        EXPECT_EQ(sa.commitGroupProducers.bucket(i),
                  sb.commitGroupProducers.bucket(i))
            << "bucket " << i;
    ASSERT_EQ(a.engineStats.size(), b.engineStats.size());
    for (size_t i = 0; i < a.engineStats.size(); ++i) {
        EXPECT_EQ(a.engineStats[i].first, b.engineStats[i].first);
        EXPECT_EQ(a.engineStats[i].second, b.engineStats[i].second);
    }
}

TEST(ResultCache, RecordRoundTripIsExact)
{
    SimConfig cfg = shrunk(SimConfig::rsepIdeal());
    PhaseResult pr = runPhase(cfg, "hmmer", 0);
    CacheKey key{"hmmer", configHash(cfg), 0, cfg.seed};

    std::string body = ResultCache::serializeRecord(key, pr);
    PhaseResult back;
    std::string err = ResultCache::parseRecord(body, key, back);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(back.fromCache);
    expectSamePhase(pr, back);
    EXPECT_EQ(back.wallMicros, pr.wallMicros);
}

/** A PhaseResult with every recorded field set, without simulating;
 *  @p engine_entries varies the record's length. */
PhaseResult
fixedResult(u64 engine_entries)
{
    PhaseResult pr;
    pr.ipc = 1.2345;
    pr.wallMicros = 6789;
    u64 v = 1;
    visitStats(pr.stats, [&](const char *, StatCounter &c) { c += v++ * 31; });
    StatHistogram &h = pr.stats.commitGroupProducers;
    for (size_t b = 0; b < h.buckets(); ++b)
        h.sample(b, b + 1);
    for (u64 i = 0; i < engine_entries; ++i)
        pr.engineStats.emplace_back("engine.rsep.c" + std::to_string(i),
                                    i * 1000 + 7);
    return pr;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

TEST(ResultCache, OnDiskBytesArePinned)
{
    // A round trip cannot see a change made to the writer and the
    // reader alike, and a changed record misses every existing cache.
    // These constants pin the bytes themselves.
    TempDir tmp;
    ResultCache cache(tmp.path);
    CacheKey key{"mcf", "0123456789abcdef", 1, 0x5eed};
    ASSERT_TRUE(cache.store(key, fixedResult(3)));
    std::string path = cache.cellPath(key);
    EXPECT_EQ(path,
              tmp.path + "/mcf/0123456789abcdef-p1-s0000000000005eed.cell");
    std::string text = slurp(path);
    EXPECT_EQ(text.size(), 1386u);
    EXPECT_EQ(hex64(fnv1a64(text)), "4adb2858295c2a58");

    // A custom workload's `name@hash` key keeps its '@' in the
    // directory name, as trace and sample paths do.
    CacheKey custom{"foo@0123456789abcdef", "0123456789abcdef", 1, 0x5eed};
    EXPECT_EQ(cache.cellPath(custom),
              tmp.path + "/foo@0123456789abcdef/"
                         "0123456789abcdef-p1-s0000000000005eed.cell");
}

TEST(ResultCache, ConcurrentSameKeyStoresNeverTearOrFail)
{
    // Threads of one process storing one key (two daemon clients
    // submitting the same novel sweep, two arms sharing a config hash)
    // must each publish a whole record through a temp file of their own.
    TempDir tmp;
    ResultCache cache(tmp.path);
    constexpr int threads = 4, stores = 200, keys = 2;
    auto keyOf = [](int k) {
        return CacheKey{"mcf", "0123456789abcdef", static_cast<u32>(k),
                        0x5eed};
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            // A different record length per thread: interleaved writes
            // to one temp file cannot come out whole by accident.
            PhaseResult pr = fixedResult(static_cast<u64>(t) * 5);
            for (int i = 0; i < stores; ++i) {
                cache.store(keyOf(i % keys), pr);
                cache.load(keyOf((i + t) % keys));
            }
        });
    for (std::thread &th : pool)
        th.join();
    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.ioErrors, 0u);
    EXPECT_EQ(c.quarantined, 0u);
    EXPECT_EQ(c.stores, static_cast<u64>(threads * stores));
    for (int k = 0; k < keys; ++k)
        EXPECT_TRUE(cache.load(keyOf(k)).has_value()) << "key " << k;
}

TEST(ResultCache, HitMissAndKeyEcho)
{
    TempDir tmp;
    ResultCache cache(tmp.path);
    ASSERT_TRUE(cache.enabled());

    SimConfig cfg = shrunk(SimConfig::baseline());
    PhaseResult pr = runPhase(cfg, "mcf", 0);
    CacheKey key{"mcf", configHash(cfg), 0, cfg.seed};

    EXPECT_FALSE(cache.load(key).has_value()); // cold.
    ASSERT_TRUE(cache.store(key, pr));
    auto hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    expectSamePhase(pr, *hit);

    // Other phases/benchmarks miss.
    EXPECT_FALSE(cache.load({"mcf", key.configHash, 1, cfg.seed}));
    EXPECT_FALSE(cache.load({"namd", key.configHash, 0, cfg.seed}));

    ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 3u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.quarantined, 0u);

    // A record reached through the wrong filename (the key echo does
    // not match) is quarantined, not served.
    CacheKey other{"namd", key.configHash, 0, cfg.seed};
    fs::create_directories(
        fs::path(cache.cellPath(other)).parent_path());
    fs::copy_file(cache.cellPath(key), cache.cellPath(other));
    EXPECT_FALSE(cache.load(other).has_value());
    EXPECT_TRUE(fs::exists(cache.cellPath(other) + ".corrupt"));
    EXPECT_EQ(cache.counters().quarantined, 1u);
}

TEST(ResultCache, CorruptionQuarantines)
{
    TempDir tmp;
    ResultCache cache(tmp.path);

    SimConfig cfg = shrunk(SimConfig::baseline());
    PhaseResult pr = runPhase(cfg, "hmmer", 1);
    CacheKey key{"hmmer", configHash(cfg), 1, cfg.seed};
    std::string path = cache.cellPath(key);

    auto corrupt_with = [&](const std::string &text) {
        ASSERT_TRUE(cache.store(key, pr));
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << text;
        }
        EXPECT_FALSE(cache.load(key).has_value());
        EXPECT_FALSE(fs::exists(path)) << "corrupt record left in place";
        EXPECT_TRUE(fs::exists(path + ".corrupt"));
        fs::remove(path + ".corrupt");
    };

    // Plain garbage.
    corrupt_with("not a cache record at all\n");

    // Flipped payload byte under a stale checksum.
    {
        ASSERT_TRUE(cache.store(key, pr));
        std::ifstream is(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        size_t digit = text.find("ipc_bits = ");
        ASSERT_NE(digit, std::string::npos);
        text[digit + 11] = text[digit + 11] == '0' ? '1' : '0';
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    fs::remove(path + ".corrupt");

    // Truncation (torn write without the atomic rename).
    {
        ASSERT_TRUE(cache.store(key, pr));
        std::ifstream is(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    }
    EXPECT_FALSE(cache.load(key).has_value());

    // Version drift.
    PhaseResult back;
    std::string body = ResultCache::serializeRecord(key, pr);
    body.replace(body.find("rsep-cell-cache 1"), 17, "rsep-cell-cache 9");
    EXPECT_FALSE(ResultCache::parseRecord(body, key, back).empty());

    // After all that abuse a fresh store still works.
    ASSERT_TRUE(cache.store(key, pr));
    EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ResultCache, InjectedStoreFaultsFailCleanOrQuarantine)
{
    fault::disarmAll();
    TempDir tmp;
    ResultCache cache(tmp.path);

    SimConfig cfg = shrunk(SimConfig::baseline());
    PhaseResult pr = runPhase(cfg, "mcf", 0);
    CacheKey key{"mcf", configHash(cfg), 0, cfg.seed};
    std::string path = cache.cellPath(key);
    std::string err;

    // cache.write errno: the store fails, nothing is published.
    ASSERT_TRUE(fault::armFromSpec("cache.write:fail=enospc", &err))
        << err;
    EXPECT_FALSE(cache.store(key, pr));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_GE(cache.counters().ioErrors, 1u);

    // cache.rename errno: the publish fails, and no temp debris stays
    // behind to confuse a later GC.
    ASSERT_TRUE(fault::armFromSpec("cache.rename:fail=enospc", &err))
        << err;
    EXPECT_FALSE(cache.store(key, pr));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(fs::path(path).parent_path()));

    // cache.write truncate: the torn record PUBLISHES — simulated
    // silent on-disk corruption. The next load must quarantine it, and
    // an unarmed re-store repopulates the cell.
    ASSERT_TRUE(fault::armFromSpec("cache.write:fail=truncate:bytes=64",
                                   &err))
        << err;
    EXPECT_TRUE(cache.store(key, pr));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    EXPECT_GE(cache.counters().quarantined, 1u);

    EXPECT_TRUE(cache.store(key, pr));
    auto hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    expectSamePhase(pr, *hit);
    fault::disarmAll();
}

TEST(ResultCache, WarmMatrixSimulatesNothingAndMatchesCold)
{
    TempDir tmp;
    std::vector<SimConfig> configs = {shrunk(SimConfig::baseline()),
                                      shrunk(SimConfig::rsepIdeal())};
    std::vector<std::string> benches = {"hmmer", "mcf"};

    MatrixOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.cacheDir = tmp.path;

    auto cold = runMatrix(configs, benches, opts);
    auto warm = runMatrix(configs, benches, opts);

    for (size_t b = 0; b < benches.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const RunResult &rc = cold[b].byConfig[c];
            const RunResult &rw = warm[b].byConfig[c];
            // Cold run simulated everything...
            EXPECT_EQ(rc.timing.cellsRun.value(), rc.phases.size());
            EXPECT_EQ(rc.timing.cacheHits.value(), 0u);
            EXPECT_EQ(rc.timing.cacheMisses.value(), rc.phases.size());
            // ...the warm run simulated nothing.
            EXPECT_EQ(rw.timing.cellsRun.value(), 0u);
            EXPECT_EQ(rw.timing.cacheMisses.value(), 0u);
            EXPECT_EQ(rw.timing.cacheHits.value(), rw.phases.size());
            ASSERT_EQ(rc.phases.size(), rw.phases.size());
            for (size_t p = 0; p < rc.phases.size(); ++p)
                expectSamePhase(rc.phases[p], rw.phases[p]);
        }
    }

    // The default (timing-free) stat dump is byte-reproducible across
    // cache temperatures — the acceptance property of the cache.
    std::ostringstream csv_cold, csv_warm;
    CsvStatSink{}.write(csv_cold, collectStatRows(configs, cold));
    CsvStatSink{}.write(csv_warm, collectStatRows(configs, warm));
    EXPECT_EQ(csv_cold.str(), csv_warm.str());

    // With --timings the cache-hit counters surface in the dump.
    auto rows = collectStatRows(configs, warm, /*include_timings=*/true);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].counter("timing.cache_hits"), rows[0].checkpoints);
}

} // namespace
} // namespace rsep::sim
