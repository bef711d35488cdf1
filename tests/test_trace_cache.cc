/**
 * @file
 * Trace data-path tests: MmapFile (mapping + read fallback are
 * indistinguishable to consumers), the zero-copy readers (mmap'd and
 * in-memory decodes are byte-identical, corruption diagnostics survive
 * the move to mmap), and DecodedTraceCache (hit/miss/keying/eviction
 * semantics, decode-once under concurrency, shared snapshots across
 * runMatrix cells at any thread count).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <stdlib.h>
#include <unistd.h>

#include "common/mmap_file.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"

namespace fs = std::filesystem;

namespace rsep
{
namespace
{

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_tcache_test_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good()) << path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<wl::DynRecord>
sampleRecords(size_t n)
{
    std::vector<wl::DynRecord> recs;
    for (size_t i = 0; i < n; ++i) {
        wl::DynRecord r;
        r.staticIdx = static_cast<u32>(i % 37);
        r.nextIdx = static_cast<u32>((i + 1) % 37);
        r.result = 0x0123456789abcdefull ^ (static_cast<u64>(i) << 17);
        r.effAddr = i % 3 ? 0x10000000 + i * 8 : 0;
        r.taken = i % 5 == 0;
        recs.push_back(r);
    }
    return recs;
}

wl::TraceHeader
sampleHeader(u64 records)
{
    wl::TraceHeader h;
    h.workload = "sample";
    h.workloadHash = "0123456789abcdef";
    h.phase = 2;
    h.programLength = 37;
    h.records = records;
    return h;
}

/** Write a sample trace; returns its path. */
std::string
writeSample(const std::string &dir, size_t records, u32 phase = 2)
{
    auto recs = sampleRecords(records);
    wl::TraceHeader h = sampleHeader(recs.size());
    h.phase = phase;
    std::string path = wl::tracePath(dir, h.workload, phase);
    std::string err;
    EXPECT_TRUE(wl::writeTraceFile(path, h, recs, &err)) << err;
    return path;
}

/** Enough sample records for the file to pass MmapFile::minMapBytes. */
constexpr size_t mappedRecords = 20000;

/** Tests of the mmap path must really map: fail when @p path is read. */
void
expectMapped(const std::string &path)
{
    MmapFile f;
    std::string err;
    ASSERT_TRUE(f.open(path, &err)) << err;
    EXPECT_TRUE(f.mapped()) << path << ": " << f.view().size()
                            << " bytes, below MmapFile::minMapBytes";
}

// -------------------------------------------------------- MmapFile

TEST(MmapFile, MapsRegularFilesAndReportsErrors)
{
    std::string dir = scratchDir("mmap_basic");
    std::string path = dir + "/blob.bin";
    std::string content(100000, '\0');
    for (size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<char>(i * 131 + 7);
    writeFile(path, content);

    MmapFile f;
    std::string err;
    ASSERT_TRUE(f.open(path, &err)) << err;
    EXPECT_TRUE(f.ok());
    EXPECT_TRUE(f.mapped()); // non-empty regular file on a normal fs.
    EXPECT_EQ(f.view(), std::string_view(content));

    // Reopen releases the old mapping and serves the new file.
    std::string path2 = dir + "/blob2.bin";
    writeFile(path2, "tiny");
    ASSERT_TRUE(f.open(path2, &err)) << err;
    EXPECT_EQ(f.view(), "tiny");
    EXPECT_FALSE(f.mapped()); // small files are read, not mapped.

    std::string missing_err;
    MmapFile g;
    EXPECT_FALSE(g.open(dir + "/nope.bin", &missing_err));
    EXPECT_FALSE(g.ok());
    EXPECT_NE(missing_err.find("nope.bin"), std::string::npos);

    f.close();
    EXPECT_FALSE(f.ok());
    EXPECT_TRUE(f.view().empty());
    fs::remove_all(dir);
}

TEST(MmapFile, EmptyFileUsesFallbackAndYieldsEmptyView)
{
    std::string dir = scratchDir("mmap_empty");
    std::string path = dir + "/empty.bin";
    writeFile(path, "");
    MmapFile f;
    std::string err;
    ASSERT_TRUE(f.open(path, &err)) << err; // mmap(0) is EINVAL: fallback.
    EXPECT_TRUE(f.ok());
    EXPECT_FALSE(f.mapped());
    EXPECT_TRUE(f.view().empty());
    fs::remove_all(dir);
}

TEST(MmapFile, MoveTransfersTheView)
{
    std::string dir = scratchDir("mmap_move");
    std::string path = dir + "/blob.bin";
    writeFile(path, "move me");
    MmapFile a;
    ASSERT_TRUE(a.open(path));
    MmapFile b(std::move(a));
    EXPECT_FALSE(a.ok());
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(b.view(), "move me");
    fs::remove_all(dir);
}

TEST(MmapFileDeathTest, NoMmapFallbackIsByteIdentical)
{
    // RSEP_NO_MMAP is resolved once per process, so the fallback is
    // exercised in a fresh process (threadsafe death test re-executes
    // the binary) with the override set before the first open.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string dir = scratchDir("mmap_nofallback");
    std::string path = writeSample(dir, mappedRecords);
    std::string expected = slurp(path);
    auto readWithoutMmap = [&] {
        ::setenv("RSEP_NO_MMAP", "1", 1);
        MmapFile f;
        std::string err;
        if (!f.open(path, &err))
            return 2;
        if (f.mapped()) // override must force the read path.
            return 3;
        if (f.view() != std::string_view(expected))
            return 4;
        // The fallback feeds the same bytes through the same decoder:
        // the decode must succeed identically.
        wl::DecodedTraceParse p = wl::decodeTraceImage(f.view(), path);
        return p.ok() && p.trace->size() == mappedRecords ? 0 : 5;
    };
    EXPECT_EXIT(
        {
            int code = readWithoutMmap();
            fs::remove_all(dir); // the child's own scratch dir.
            ::exit(code);
        },
        ::testing::ExitedWithCode(0), "");
    // Without the override the same file maps, so exit 3 above means
    // something. Checked after the death test: an open before it would
    // resolve the override in the re-executed child first.
    expectMapped(path);
    fs::remove_all(dir);
}

// ------------------------------------------- zero-copy trace readers

TEST(TraceZeroCopy, MmapAndStreamDecodesAreByteIdentical)
{
    std::string dir = scratchDir("zc_identity");
    std::string path = writeSample(dir, mappedRecords);
    expectMapped(path);
    // Stream read (the pre-mmap data path) vs the MmapFile reader.
    wl::DecodedTraceParse viaStream = wl::decodeTraceImage(slurp(path), path);
    wl::DecodedTraceParse viaMmap = wl::loadDecodedTrace(path);
    ASSERT_TRUE(viaStream.ok()) << viaStream.error;
    ASSERT_TRUE(viaMmap.ok()) << viaMmap.error;
    const wl::DecodedTrace &m = *viaMmap.trace;
    const wl::DecodedTrace &st = *viaStream.trace;
    EXPECT_EQ(m.payloadChecksum, st.payloadChecksum);
    EXPECT_EQ(m.staticIdx, st.staticIdx);
    EXPECT_EQ(m.nextIdx, st.nextIdx);
    EXPECT_EQ(m.taken, st.taken);
    EXPECT_EQ(m.result, st.result);
    EXPECT_EQ(m.effAddr, st.effAddr);
    // Re-serializing the mmap decode reproduces the file exactly.
    std::vector<wl::DynRecord> recs;
    for (size_t i = 0; i < m.size(); ++i)
        recs.push_back(m.recordAt(i));
    EXPECT_EQ(wl::serializeTrace(m.header, recs), slurp(path));
    fs::remove_all(dir);
}

TEST(TraceZeroCopy, OnDiskCorruptionDiagnosticsSurviveTheMmapPath)
{
    std::string dir = scratchDir("zc_corrupt");
    std::string path = writeSample(dir, mappedRecords);
    std::string image = slurp(path);

    auto errOfFile = [&](const std::string &tag, std::string img) {
        std::string p = dir + "/" + tag + ".rtr";
        writeFile(p, img);
        if (img.size() >= MmapFile::minMapBytes)
            expectMapped(p);
        wl::DecodedTraceParse d = wl::loadDecodedTrace(p);
        EXPECT_FALSE(d.ok()) << tag;
        // A header-only read rejects the same bytes the same way.
        wl::DecodedTraceParse h = wl::loadDecodedTrace(p, true);
        EXPECT_FALSE(h.ok()) << tag;
        return d.error;
    };

    // Truncations at every structural boundary: mid-header, mid-payload,
    // mid-trailer, empty.
    EXPECT_NE(errOfFile("t1", image.substr(0, 30)).find("bad"),
              std::string::npos);
    EXPECT_NE(errOfFile("t2", image.substr(0, image.size() - 40))
                  .find("truncated"),
              std::string::npos);
    EXPECT_NE(errOfFile("t3", image.substr(0, image.size() - 5))
                  .find("truncated"),
              std::string::npos);
    EXPECT_FALSE(errOfFile("t4", "").empty());

    // Flipped payload byte.
    std::string flip = image;
    flip[image.find("payload\n") + 8 + 50] ^= 0x20;
    EXPECT_NE(errOfFile("t5", flip).find("checksum mismatch"),
              std::string::npos);

    // Absurd record count (the reserve-abort guard).
    std::string lie = image;
    const std::string count = "records = " + std::to_string(mappedRecords);
    size_t at = lie.find(count);
    lie.replace(at, count.size(), "records = 99999999999999");
    EXPECT_NE(errOfFile("t6", lie).find("exceeds"), std::string::npos);

    fs::remove_all(dir);
}

// ---------------------------------------------- DecodedTraceCache

TEST(DecodedTraceCache, MissThenHitSharesOneSnapshot)
{
    std::string dir = scratchDir("cache_hit");
    std::string path = writeSample(dir, mappedRecords);
    expectMapped(path); // a hit reads the trailer through the mapping.

    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_FALSE(a.hit);
    auto b = cache.get(path);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(a.trace.get(), b.trace.get()); // the same decoded object.

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.residentBytes, a.trace->decodedBytes());

    cache.resetStats();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().residentBytes, a.trace->decodedBytes());
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, OverwrittenFileMissesByChecksumKey)
{
    std::string dir = scratchDir("cache_key");
    std::string path = writeSample(dir, 200);
    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.trace->size(), 200u);

    // Same path, new bytes (e.g. re-recorded at a bigger sizing): the
    // checksum key must force a fresh decode, never stale records.
    writeSample(dir, 250);
    auto b = cache.get(path);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_FALSE(b.hit);
    EXPECT_EQ(b.trace->size(), 250u);
    EXPECT_EQ(cache.stats().misses, 2u);
    // The old snapshot the first caller holds is untouched.
    EXPECT_EQ(a.trace->size(), 200u);
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, LruEvictionIsBoundedAndKeepsInUseDataAlive)
{
    std::string dir = scratchDir("cache_lru");
    std::string p0 = writeSample(dir, 1000, /*phase=*/0);
    std::string p1 = writeSample(dir, 1000, /*phase=*/1);
    std::string p2 = writeSample(dir, 1000, /*phase=*/2);

    const u64 one = 1000 * wl::DecodedTrace::bytesPerRecord;
    wl::DecodedTraceCache cache(/*capacity_bytes=*/2 * one);
    auto a = cache.get(p0);
    auto b = cache.get(p1);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(cache.stats().residentBytes, 2 * one);

    // Touch p0 so p1 is the LRU victim when p2 lands.
    EXPECT_TRUE(cache.get(p0).hit);
    auto c = cache.get(p2);
    ASSERT_TRUE(c.ok());
    auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.residentBytes, 2 * one);
    EXPECT_TRUE(cache.get(p0).hit);   // survived (recently used).
    EXPECT_FALSE(cache.get(p1).hit);  // evicted: decodes again.
    // The evicted snapshot `b` holds is still fully usable.
    EXPECT_EQ(b.trace->size(), 1000u);
    EXPECT_EQ(b.trace->recordAt(999).nextIdx,
              sampleRecords(1000)[999].nextIdx);

    // Capacity 0 = unlimited: no evictions however much lands.
    wl::DecodedTraceCache unbounded(0);
    unbounded.get(p0);
    unbounded.get(p1);
    unbounded.get(p2);
    EXPECT_EQ(unbounded.stats().evictions, 0u);
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, CorruptFilesAreNotCached)
{
    std::string dir = scratchDir("cache_err");
    std::string path = writeSample(dir, 100);
    std::string image = slurp(path);
    writeFile(path, image.substr(0, image.size() - 7)); // truncate.

    wl::DecodedTraceCache cache;
    auto a = cache.get(path);
    EXPECT_FALSE(a.ok());
    EXPECT_NE(a.error.find("truncated"), std::string::npos);
    auto b = cache.get(path);
    EXPECT_FALSE(b.ok()); // still an error, not a poisoned hit.
    EXPECT_EQ(cache.stats().residentBytes, 0u);

    // Fixing the file heals the lookup.
    writeFile(path, image);
    auto c = cache.get(path);
    ASSERT_TRUE(c.ok()) << c.error;
    fs::remove_all(dir);
}

TEST(DecodedTraceCache, ConcurrentColdLookupsDecodeOnce)
{
    std::string dir = scratchDir("cache_mt");
    std::string path = writeSample(dir, 5000);

    for (int round = 0; round < 8; ++round) {
        wl::DecodedTraceCache cache;
        constexpr int kThreads = 8;
        std::vector<std::shared_ptr<const wl::DecodedTrace>> got(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                auto r = cache.get(path);
                ASSERT_TRUE(r.ok()) << r.error;
                got[t] = r.trace;
            });
        for (auto &th : threads)
            th.join();
        auto s = cache.stats();
        EXPECT_EQ(s.misses, 1u) << "decode-once must hold under racing "
                                   "cold lookups";
        EXPECT_EQ(s.hits, static_cast<u64>(kThreads - 1));
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t].get(), got[0].get());
    }
    fs::remove_all(dir);
}

// ------------------------------------- shared decode across runMatrix

sim::SimConfig
tinyConfig(const char *label_base)
{
    sim::SimConfig cfg = sim::SimConfig::rsepIdeal();
    cfg.label = label_base;
    cfg.warmupInsts = 1'000;
    cfg.measureInsts = 3'000;
    cfg.checkpoints = 2;
    cfg.seed = 0x5eed;
    return cfg;
}

TEST(TraceCacheMatrix, CellsShareOneDecodePerTraceAtAnyJobCount)
{
    std::string dir = scratchDir("matrix_share");
    sim::SimConfig base = tinyConfig("cache-a");
    sim::SimConfig other = tinyConfig("cache-b");
    other.mech = sim::SimConfig::vpOnly().mech;
    std::vector<sim::SimConfig> configs = {base, other};
    std::vector<std::string> benches = {"gobmk", "sjeng"};

    sim::MatrixOptions rec_opts;
    rec_opts.jobs = 2;
    rec_opts.progress = false;
    rec_opts.traceIo.recordDir = dir;
    auto live = sim::runMatrix({base}, benches, rec_opts);

    // 2 benches x 2 checkpoints = 4 traces; 2 configs replay them =
    // 8 cells. Per job count the 4 first touches decode, the other 4
    // share — the decode-once-replay-many invariant, irrespective of
    // which worker thread got which cell.
    for (unsigned jobs : {1u, 4u}) {
        wl::traceCache().clear();
        sim::MatrixOptions rep_opts;
        rep_opts.jobs = jobs;
        rep_opts.progress = false;
        rep_opts.traceIo.replayDir = dir;
        auto rep = sim::runMatrix(configs, benches, rep_opts);

        u64 hits = 0, misses = 0, load_micros_cells = 0;
        for (const auto &row : rep)
            for (const sim::RunResult &rr : row.byConfig) {
                hits += rr.timing.traceDecodeHits.value();
                misses += rr.timing.traceDecodeMisses.value();
                load_micros_cells += rr.timing.cellsRun.value();
            }
        EXPECT_EQ(misses, 4u);
        EXPECT_EQ(hits, 4u);
        EXPECT_EQ(load_micros_cells, 8u);

        // And the shared-decode replay still reproduces live bit for
        // bit (config 0 matches its recording run).
        for (size_t b = 0; b < rep.size(); ++b)
            for (size_t p = 0; p < rep[b].byConfig[0].phases.size(); ++p) {
                const sim::PhaseResult &l = live[b].byConfig[0].phases[p];
                const sim::PhaseResult &r = rep[b].byConfig[0].phases[p];
                EXPECT_EQ(l.stats.committedInsts.value(),
                          r.stats.committedInsts.value());
                EXPECT_EQ(l.stats.cycles.value(), r.stats.cycles.value());
                EXPECT_EQ(l.engineStats, r.engineStats);
            }
    }

    // A warm second sweep replays with zero fresh decodes.
    sim::MatrixOptions warm_opts;
    warm_opts.jobs = 4;
    warm_opts.progress = false;
    warm_opts.traceIo.replayDir = dir;
    auto warm = sim::runMatrix(configs, benches, warm_opts);
    u64 warm_hits = 0, warm_misses = 0;
    for (const auto &row : warm)
        for (const sim::RunResult &rr : row.byConfig) {
            warm_hits += rr.timing.traceDecodeHits.value();
            warm_misses += rr.timing.traceDecodeMisses.value();
        }
    EXPECT_EQ(warm_misses, 0u);
    EXPECT_EQ(warm_hits, 8u);

    wl::traceCache().clear();
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep
