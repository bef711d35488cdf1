/**
 * @file
 * Recorded-trace tests: the `.rtr` round-trip is bit-exact, every
 * corruption class is rejected with a diagnostic (never a partial
 * parse), and — the invariant the record/replay subsystem exists for —
 * replaying a recorded trace reproduces the live-emulation PhaseResult
 * bit for bit, through runPhase and through a full runMatrix.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include <unistd.h>

#include "common/fault.hh"
#include "common/fnv.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace fs = std::filesystem;

namespace rsep
{
namespace
{

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = (fs::temp_directory_path() /
                       ("rsep_trace_test_" + tag + "_" +
                        std::to_string(::getpid())))
                          .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
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

/** The decoded stream as records, for re-serialization. */
std::vector<wl::DynRecord>
recordsOf(const wl::DecodedTrace &t)
{
    std::vector<wl::DynRecord> out;
    for (size_t i = 0; i < t.size(); ++i)
        out.push_back(t.recordAt(i));
    return out;
}

/** @p t decodes to exactly @p want, record for record. */
void
expectRecords(const wl::DecodedTrace &t,
              const std::vector<wl::DynRecord> &want)
{
    ASSERT_EQ(t.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        wl::DynRecord r = t.recordAt(i);
        EXPECT_EQ(r.staticIdx, want[i].staticIdx) << i;
        EXPECT_EQ(r.nextIdx, want[i].nextIdx) << i;
        EXPECT_EQ(r.result, want[i].result) << i;
        EXPECT_EQ(r.effAddr, want[i].effAddr) << i;
        EXPECT_EQ(r.taken, want[i].taken) << i;
    }
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

TEST(TraceIo, RoundTripIsBitExact)
{
    auto recs = sampleRecords(1000);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    EXPECT_EQ(image.substr(0, 13), "rsep-trace 2\n");
    wl::DecodedTraceParse parsed = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const wl::DecodedTrace &t = *parsed.trace;
    EXPECT_EQ(t.header.workload, "sample");
    EXPECT_EQ(t.header.workloadHash, "0123456789abcdef");
    EXPECT_EQ(t.header.phase, 2u);
    EXPECT_EQ(t.header.programLength, 37u);
    EXPECT_EQ(t.header.records, recs.size());
    expectRecords(t, recs);
    EXPECT_EQ(t.decodedBytes(),
              recs.size() * wl::DecodedTrace::bytesPerRecord);
    // Serializing the decode reproduces the image byte for byte.
    EXPECT_EQ(wl::serializeTrace(t.header, recordsOf(t)), image);
}

TEST(TraceIo, OnDiskBytesArePinned)
{
    // A round trip cannot see a change made to the writer and the
    // reader alike; these constants pin the bytes themselves. They
    // change only with traceFormatVersion.
    auto recs = sampleRecords(6);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    EXPECT_EQ(image.size(), 181u);
    EXPECT_EQ(hex64(fnv1a64(image)), "e15bdd46d240149d");

    std::string dir = scratchDir("pinned");
    std::string path = dir + "/t.rtr";
    std::string err;
    ASSERT_TRUE(
        wl::writeTraceFile(path, sampleHeader(recs.size()), recs, &err))
        << err;
    std::ifstream is(path, std::ios::binary);
    std::string file((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(file, image);
    fs::remove_all(dir);
}

TEST(TraceIo, FileRoundTripAndHeaderOnly)
{
    std::string dir = scratchDir("file_rt");
    auto recs = sampleRecords(64);
    std::string path = wl::tracePath(dir, "sample", 2);
    EXPECT_EQ(path, dir + "/sample-p2.rtr");
    std::string err;
    ASSERT_TRUE(
        wl::writeTraceFile(path, sampleHeader(recs.size()), recs, &err))
        << err;

    wl::DecodedTraceParse full = wl::loadDecodedTrace(path);
    ASSERT_TRUE(full.ok()) << full.error;
    expectRecords(*full.trace, recs);

    wl::DecodedTraceParse head =
        wl::loadDecodedTrace(path, /*header_only=*/true);
    ASSERT_TRUE(head.ok()) << head.error;
    EXPECT_EQ(head.trace->header.records, 64u);
    EXPECT_EQ(head.trace->header.workload, "sample");
    EXPECT_EQ(head.trace->payloadChecksum, full.trace->payloadChecksum);
    EXPECT_EQ(head.trace->size(), 0u);

    // Header-only reads still checksum the payload.
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    image[image.find("payload\n") + 8 + 10] ^= 0x40;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << image;
    wl::DecodedTraceParse bad =
        wl::loadDecodedTrace(path, /*header_only=*/true);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("checksum mismatch"), std::string::npos)
        << bad.error;

    fs::remove_all(dir);
}

TEST(TraceIo, CorruptionIsRejectedWithDiagnostics)
{
    auto recs = sampleRecords(50);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);

    auto errOf = [](std::string img) {
        wl::DecodedTraceParse p = wl::decodeTraceImage(img, "<bad>");
        EXPECT_FALSE(p.ok());
        return p.error;
    };

    // Version mismatch.
    std::string v = image;
    v[11] = '9'; // "rsep-trace 2" -> "rsep-trace 9"
    EXPECT_NE(errOf(v).find("version"), std::string::npos);

    // Flipped payload byte -> checksum mismatch.
    std::string flip = image;
    flip[image.find("payload\n") + 8 + 100] ^= 0x40;
    EXPECT_NE(errOf(flip).find("checksum mismatch"), std::string::npos);

    // Truncation (drop the trailer and part of the payload).
    EXPECT_NE(errOf(image.substr(0, image.size() - 60))
                  .find("truncated"),
              std::string::npos);

    // Record-count lie.
    std::string lie = image;
    size_t at = lie.find("records = 50");
    lie.replace(at, 12, "records = 51");
    EXPECT_FALSE(errOf(lie).empty());

    // Empty / garbage input.
    EXPECT_FALSE(errOf("").empty());
    EXPECT_FALSE(errOf("not a trace\n").empty());
}

TEST(TraceIo, RecordingSourceTeesAndSlack)
{
    wl::Workload w = wl::makeWorkload("lbm");
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    wl::RecordingTraceSource rec(emu);
    for (int i = 0; i < 100; ++i)
        rec.step();
    EXPECT_EQ(rec.records().size(), 100u);
    EXPECT_TRUE(rec.recordUpTo(140));
    EXPECT_EQ(rec.records().size(), 140u);
    // A consumer that already took more than the target is refused.
    EXPECT_FALSE(rec.recordUpTo(120));
    EXPECT_EQ(rec.records().size(), 140u);
    // Slack continued the same architectural stream.
    wl::Emulator ref(w.program);
    ref.resetArchState();
    wl::Workload w2 = wl::makeWorkload("lbm");
    w2.init(ref, 0);
    for (size_t i = 0; i < 140; ++i) {
        const wl::DynRecord &want = ref.step();
        EXPECT_EQ(rec.records()[i].staticIdx, want.staticIdx) << i;
        EXPECT_EQ(rec.records()[i].result, want.result) << i;
    }
}

TEST(TraceIo, RetiredV1IsRejectedWithReRecordDiagnostic)
{
    // Version 1 (raw 25-byte records) is retired. Its header differs
    // from a current one only in the version line, so the envelope
    // must stop there and say what to do, never crash or misdecode.
    auto recs = sampleRecords(50);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    image[11] = '1'; // "rsep-trace 2" -> "rsep-trace 1"
    wl::DecodedTraceParse p = wl::decodeTraceImage(image, "<v1>");
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("<v1>: "), std::string::npos) << p.error;
    EXPECT_NE(p.error.find("version 1 is retired"), std::string::npos)
        << p.error;
    EXPECT_NE(p.error.find("re-record"), std::string::npos) << p.error;
    EXPECT_NE(p.error.find("--record-trace"), std::string::npos)
        << p.error;
}

TEST(TraceIo, V2ExtremeValuesRoundTrip)
{
    // Adversarial records for the varint/delta coder: max values,
    // backward next-branches, alternating zero/non-zero, repeated and
    // wildly-jumping results and addresses.
    std::vector<wl::DynRecord> recs;
    auto add = [&](u32 si, u32 ni, u64 res, u64 ea, bool tk) {
        wl::DynRecord r;
        r.staticIdx = si;
        r.nextIdx = ni;
        r.result = res;
        r.effAddr = ea;
        r.taken = tk;
        recs.push_back(r);
    };
    add(0xffffffff, 0, ~u64{0}, ~u64{0}, true);      // max everything.
    add(0, 0xffffffff, 0, 0, false);                 // max forward jump.
    add(5, 2, 1, 8, true);                           // backward branch.
    add(2, 3, 1, 0, false);                          // repeated result.
    add(3, 4, 0x8000000000000000ull, 16, false);     // sign-bit delta.
    add(4, 5, 1, ~u64{0} - 7, false);                // huge addr delta.
    for (u64 i = 0; i < 300; ++i)                    // dense typical run.
        add(static_cast<u32>(i % 7), static_cast<u32>((i + 1) % 7),
            i % 4 ? i : 0, i % 3 ? 0x1000 + 8 * (i % 16) : 0,
            i % 9 == 0);
    std::string image = wl::serializeTrace(sampleHeader(recs.size()), recs);
    wl::DecodedTraceParse p = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(p.ok()) << p.error;
    expectRecords(*p.trace, recs);
    EXPECT_EQ(wl::serializeTrace(p.trace->header, recordsOf(*p.trace)),
              image);
}

TEST(TraceIo, V2CutsRealTraceSizeSeveralFold)
{
    // The point of the encoding: a real committed-path stream shrinks
    // several-fold against fixed-width 25-byte records (u32 staticIdx,
    // u32 nextIdx, u64 result, u64 effAddr, u8 taken).
    wl::Workload w = wl::makeWorkload("hmmer");
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    wl::RecordingTraceSource rec(emu);
    for (int i = 0; i < 20000; ++i)
        rec.step();
    wl::TraceHeader h = sampleHeader(rec.records().size());
    h.programLength = w.program.size();
    const size_t fixed_width = rec.records().size() * 25;
    std::string image = wl::serializeTrace(h, rec.records());
    EXPECT_LT(image.size() * 3, fixed_width)
        << "the trace should be at least 3x smaller than fixed-width "
        << "records on a real stream (fixed " << fixed_width
        << "B, encoded " << image.size() << "B)";
    wl::DecodedTraceParse p = wl::decodeTraceImage(image, "<mem>");
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.trace->size(), rec.records().size());
}

sim::SimConfig
tinyConfig()
{
    sim::SimConfig cfg = sim::SimConfig::rsepIdeal();
    cfg.warmupInsts = 2'000;
    cfg.measureInsts = 6'000;
    cfg.checkpoints = 2;
    cfg.seed = 0x5eed;
    return cfg;
}

void
expectSamePhase(const sim::PhaseResult &a, const sim::PhaseResult &b)
{
    // Bit-exact IPC and identical counter sets: the whole point of
    // replay is that no stat dump can tell the difference.
    EXPECT_EQ(std::bit_cast<u64>(a.ipc), std::bit_cast<u64>(b.ipc));
    sim::PhaseResult am = a, bm = b;
    std::vector<std::pair<std::string, u64>> ac, bc;
    visitStats(am.stats, [&](const char *n, StatCounter &c) {
        ac.emplace_back(n, c.value());
    });
    visitStats(bm.stats, [&](const char *n, StatCounter &c) {
        bc.emplace_back(n, c.value());
    });
    EXPECT_EQ(ac, bc);
    EXPECT_EQ(a.engineStats, b.engineStats);
}

TEST(TraceReplay, RunPhaseReplayReproducesLiveBitForBit)
{
    std::string dir = scratchDir("runphase");
    sim::SimConfig cfg = tinyConfig();

    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::PhaseResult live = sim::runPhase(cfg, "mcf", 1, record);
    EXPECT_FALSE(live.replayed);
    ASSERT_TRUE(fs::exists(wl::tracePath(dir, "mcf", 1)));

    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    sim::PhaseResult rep = sim::runPhase(cfg, "mcf", 1, replay);
    EXPECT_TRUE(rep.replayed);
    expectSamePhase(live, rep);

    // A different mechanism arm replays the same trace (record once,
    // replay many) and still matches its own live run.
    sim::SimConfig vp = tinyConfig();
    vp.mech = sim::SimConfig::vpOnly().mech;
    sim::PhaseResult vp_live = sim::runPhase(vp, "mcf", 1);
    sim::PhaseResult vp_rep = sim::runPhase(vp, "mcf", 1, replay);
    expectSamePhase(vp_live, vp_rep);

    fs::remove_all(dir);
}

TEST(TraceReplay, RunMatrixRecordThenReplayIsIdentical)
{
    std::string dir = scratchDir("matrix");
    std::vector<sim::SimConfig> configs = {tinyConfig()};
    std::vector<std::string> benches = {"hmmer", "libquantum"};

    sim::MatrixOptions rec_opts;
    rec_opts.jobs = 2;
    rec_opts.progress = false;
    rec_opts.traceIo.recordDir = dir;
    auto live = sim::runMatrix(configs, benches, rec_opts);

    sim::MatrixOptions rep_opts;
    rep_opts.jobs = 2;
    rep_opts.progress = false;
    rep_opts.traceIo.replayDir = dir;
    auto rep = sim::runMatrix(configs, benches, rep_opts);

    ASSERT_EQ(live.size(), rep.size());
    for (size_t b = 0; b < live.size(); ++b) {
        ASSERT_EQ(live[b].byConfig[0].phases.size(),
                  rep[b].byConfig[0].phases.size());
        for (size_t p = 0; p < live[b].byConfig[0].phases.size(); ++p) {
            EXPECT_TRUE(rep[b].byConfig[0].phases[p].replayed);
            expectSamePhase(live[b].byConfig[0].phases[p],
                            rep[b].byConfig[0].phases[p]);
        }
    }
    fs::remove_all(dir);
}

TEST(TraceReplay, RecordedBytesDependOnlyOnCellAndSizing)
{
    // Two arms of one sizing consume different record counts (a
    // smaller window fetches less far ahead), and both write the same
    // file. The recording must not depend on which arm wrote last: not
    // on the arm itself, and not on the job count that orders the
    // writers.
    sim::SimConfig base = tinyConfig();
    base.mech = sim::SimConfig::baseline().mech;
    base.checkpoints = 1;
    sim::SimConfig rsep = tinyConfig();
    rsep.core.robSize = 64;
    rsep.checkpoints = 1;
    std::vector<std::string> benches = {"xalancbmk", "mcf"};

    auto record = [&](const std::vector<sim::SimConfig> &configs,
                      unsigned jobs, const std::string &tag) {
        std::string dir = scratchDir(tag);
        sim::MatrixOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.traceIo.recordDir = dir;
        sim::runMatrix(configs, benches, opts);
        std::map<std::string, std::string> files;
        for (const auto &e : fs::directory_iterator(dir)) {
            std::ifstream in(e.path(), std::ios::binary);
            files[e.path().filename().string()].assign(
                std::istreambuf_iterator<char>(in), {});
        }
        fs::remove_all(dir);
        return files;
    };

    auto serial = record({base, rsep}, 1, "rec_j1");
    ASSERT_EQ(serial.size(), benches.size());
    EXPECT_EQ(record({base, rsep}, 4, "rec_j4"), serial);
    EXPECT_EQ(record({base}, 1, "rec_base"), serial);
    EXPECT_EQ(record({rsep}, 1, "rec_rsep"), serial);

    // The length is the sizing's, not the consumer's.
    wl::DecodedTraceParse p =
        wl::decodeTraceImage(serial.begin()->second, "rec");
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.trace->header.records,
              base.warmupInsts + base.measureInsts + 8192);
}

TEST(TraceReplay, MismatchedWorkloadHashIsRejected)
{
    std::string dir = scratchDir("mismatch");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::runPhase(cfg, "lbm", 0, record);

    // Tamper: rewrite the file under a different workload's name so
    // the identity echo cannot match.
    std::string path = wl::tracePath(dir, "lbm", 0);
    wl::DecodedTraceParse t = wl::loadDecodedTrace(path);
    ASSERT_TRUE(t.ok()) << t.error;
    wl::TraceHeader h = t.trace->header;
    h.workload = "mcf";
    std::string err;
    ASSERT_TRUE(wl::writeTraceFile(wl::tracePath(dir, "mcf", 0), h,
                                   recordsOf(*t.trace), &err))
        << err;
    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay), "identity");
    fs::remove_all(dir);
}

TEST(TraceReplay, RetiredV1TraceIsFatalWithReRecordDiagnostic)
{
    std::string dir = scratchDir("v1");
    sim::SimConfig cfg = tinyConfig();
    wl::TraceHeader h = sampleHeader(1);
    h.workload = "mcf";
    std::string image = wl::serializeTrace(h, {wl::DynRecord{}});
    image[11] = '1'; // "rsep-trace 2" -> "rsep-trace 1"
    std::ofstream(wl::tracePath(dir, "mcf", 0), std::ios::binary) << image;

    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    // The cache's diagnostic comes through verbatim: one re-record
    // hint, nothing appended after it.
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay),
                 "version 1 is retired[^\n]*; re-record the trace with "
                 "--record-trace \\[");
    fs::remove_all(dir);
}

TEST(TraceReplay, InjectedReadErrorIsFatalWithoutReRecordHint)
{
    // An I/O error is not fixed by re-recording, so replay must not
    // say so: the trace cache's trace.read diagnostic ends the line.
    std::string dir = scratchDir("eio");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions record;
    record.recordDir = dir;
    sim::runPhase(cfg, "mcf", 0, record);

    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    std::string err;
    ASSERT_TRUE(fault::armFromSpec("trace.read:fail=eio", &err)) << err;
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay),
                 "replay: [^\n]*: trace.read: injected Input/output "
                 "error \\[");
    fault::disarmAll();
    fs::remove_all(dir);
}

TEST(TraceReplay, MissingTraceIsFatalWithoutRecordFallback)
{
    std::string dir = scratchDir("missing");
    sim::SimConfig cfg = tinyConfig();
    sim::TraceIoOptions replay;
    replay.replayDir = dir;
    EXPECT_DEATH(sim::runPhase(cfg, "mcf", 0, replay), "no trace");

    // With a record dir the cell falls back to live emulation and
    // records, making replay+record an idempotent fill mode.
    sim::TraceIoOptions fill;
    fill.replayDir = dir;
    fill.recordDir = dir;
    sim::PhaseResult first = sim::runPhase(cfg, "mcf", 0, fill);
    EXPECT_FALSE(first.replayed);
    sim::PhaseResult second = sim::runPhase(cfg, "mcf", 0, fill);
    EXPECT_TRUE(second.replayed);
    expectSamePhase(first, second);
    fs::remove_all(dir);
}

} // namespace
} // namespace rsep
