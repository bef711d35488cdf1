/**
 * @file
 * google-benchmark microbenchmarks of the hot hardware-model
 * structures: result-hash folding, FIFO history matching (the paper's
 * comparator-power concern, Section IV-B2), distance predictor
 * lookup/update, ISRB operations, cache tag access and TAGE lookup —
 * plus the served data path: the canonical stat dump of the Fig. 4
 * matrix and the `.cell` record codec.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <optional>
#include <string_view>

#include "bench_util.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "pred/tage.hh"
#include "rsep/distance_pred.hh"
#include "rsep/fifo_history.hh"
#include "rsep/hash.hh"
#include "rsep/isrb.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "wl/suite.hh"

namespace
{

using namespace rsep;

void
BM_FoldHash(benchmark::State &state)
{
    Rng rng(1);
    u64 v = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(equality::foldHash(v));
        v += 0x9e3779b9;
    }
}
BENCHMARK(BM_FoldHash);

void
BM_FifoHistoryMatch(benchmark::State &state)
{
    const unsigned depth = static_cast<unsigned>(state.range(0));
    // Second argument 1 probes with a propagated predicted distance, as
    // the Fig. 4 arms do: the hardware scan then only stops on an exact
    // distance hit, so most probes compare every entry.
    const bool with_predicted = state.range(1) != 0;
    equality::FifoHistory fifo(depth);
    Rng rng(2);
    for (unsigned i = 0; i < depth; ++i)
        fifo.push(static_cast<u16>(rng.below(1 << 14)), i, i, true);
    u32 csn = depth;
    for (auto _ : state) {
        std::optional<u32> predicted;
        if (with_predicted)
            predicted = static_cast<u32>(rng.range(1, depth));
        benchmark::DoNotOptimize(fifo.match(
            static_cast<u16>(rng.below(1 << 14)), csn, predicted));
        ++csn;
    }
    state.counters["compares_per_probe"] = benchmark::Counter(
        static_cast<double>(fifo.comparisons.value()),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FifoHistoryMatch)
    ->ArgNames({"depth", "predicted"})
    ->ArgsProduct({{32, 128, 256, 1024}, {0, 1}});

void
BM_FifoHistoryPush(benchmark::State &state)
{
    equality::FifoHistory fifo(128);
    Rng rng(3);
    u32 csn = 0;
    for (auto _ : state) {
        fifo.push(static_cast<u16>(rng.below(1 << 14)), csn, csn, true);
        ++csn;
    }
}
BENCHMARK(BM_FifoHistoryPush);

void
BM_DistancePredictorLookup(benchmark::State &state)
{
    equality::DistancePredictor dp;
    pred::GlobalHist h;
    Rng rng(4);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(256) << 2);
        benchmark::DoNotOptimize(dp.lookup(pc, h));
    }
}
BENCHMARK(BM_DistancePredictorLookup);

void
BM_DistancePredictorTrain(benchmark::State &state)
{
    equality::DistancePredictor dp;
    pred::GlobalHist h;
    Rng rng(5);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(256) << 2);
        equality::DistLookup lk = dp.lookup(pc, h);
        dp.train(lk, static_cast<u32>(rng.below(128)));
    }
}
BENCHMARK(BM_DistancePredictorTrain);

void
BM_IsrbShareRelease(benchmark::State &state)
{
    equality::Isrb isrb(24);
    Rng rng(6);
    for (auto _ : state) {
        PhysReg p = static_cast<PhysReg>(1 + rng.below(64));
        if (isrb.share(p)) {
            isrb.release(p);
            isrb.release(p);
        }
    }
}
BENCHMARK(BM_IsrbShareRelease);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheLevel l1({.name = "l1", .sizeBytes = 32 * 1024, .assoc = 8,
                        .latency = 4, .mshrs = 64});
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            l1.accessTags(rng.below(1 << 20) << 3));
}
BENCHMARK(BM_CacheAccess);

void
BM_TagePredict(benchmark::State &state)
{
    pred::Tage tage;
    pred::GlobalHist h;
    Rng rng(8);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(1024) << 2);
        pred::TageLookup lk = tage.predict(pc, h);
        benchmark::DoNotOptimize(lk);
        bool taken = rng.chance(1, 2);
        tage.update(lk, pc, taken);
        h.insert(taken, pc);
    }
}
BENCHMARK(BM_TagePredict);

void
BM_TagePredictFolded(benchmark::State &state)
{
    pred::Tage tage;
    pred::GeoFoldSpec spec;
    tage.registerFolds(spec);
    pred::GeoFolds folds;
    folds.bind(&spec);
    pred::GlobalHist h;
    Rng rng(8);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(1024) << 2);
        pred::TageLookup lk = tage.predict(pc, h, folds);
        benchmark::DoNotOptimize(lk);
        bool taken = rng.chance(1, 2);
        tage.update(lk, pc, taken);
        folds.insertDir(taken, h.dir);
        h.insert(taken, pc);
    }
}
BENCHMARK(BM_TagePredictFolded);

/**
 * The paper's Fig. 4 matrix (29 workloads x 6 arms = 174 cells) at
 * dump scale: one tiny simulated cell per arm gives each arm its real
 * counter set, copied to every workload of the suite.
 */
struct Fig4Matrix
{
    std::vector<sim::SimConfig> configs;
    std::vector<sim::MatrixRow> rows;
    size_t cells = 0;
};

const Fig4Matrix &
fig4Matrix()
{
    static const Fig4Matrix m = [] {
        Fig4Matrix f;
        for (const char *arm : {"baseline", "zero-pred", "move-elim", "rsep",
                                "vpred", "rsep+vpred"}) {
            sim::SimConfig cfg = sim::findScenario(arm)->config;
            cfg.warmupInsts = 500;
            cfg.measureInsts = 2000;
            cfg.checkpoints = 1;
            f.configs.push_back(cfg);
        }
        sim::MatrixOptions mo;
        mo.jobs = 1;
        mo.progress = false;
        std::vector<sim::MatrixRow> one =
            sim::runMatrix(f.configs, {"mcf"}, mo);
        for (const std::string &bench : wl::suiteNames()) {
            sim::MatrixRow row = one[0];
            row.benchmark = bench;
            f.rows.push_back(std::move(row));
            f.cells += f.configs.size();
        }
        return f;
    }();
    return m;
}

/** Time each iteration of @p body over @p rows rows and report the
 *  mean as ns per row. */
template <class F>
void
timePerRow(benchmark::State &state, size_t rows, F &&body)
{
    double ns = 0;
    for (auto _ : state) {
        auto t0 = std::chrono::steady_clock::now();
        body();
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    }
    state.counters["ns_per_row"] =
        ns / static_cast<double>(state.iterations() * rows);
}

void
BM_CanonicalDump(benchmark::State &state)
{
    const Fig4Matrix &m = fig4Matrix();
    timePerRow(state, m.cells, [&] {
        std::string dump = sim::CsvStatSink{}.render(
            sim::collectStatRows(m.configs, m.rows, false));
        benchmark::DoNotOptimize(dump.data());
    });
}
BENCHMARK(BM_CanonicalDump);

/** The 174 cell records of the Fig. 4 matrix, with their keys. */
struct Fig4Records
{
    std::vector<sim::CacheKey> keys;
    std::vector<const sim::PhaseResult *> results;
    std::vector<std::string> records;
};

const Fig4Records &
fig4Records()
{
    static const Fig4Records r = [] {
        const Fig4Matrix &m = fig4Matrix();
        Fig4Records out;
        for (const sim::MatrixRow &row : m.rows)
            for (size_t c = 0; c < m.configs.size(); ++c) {
                out.keys.push_back({row.benchmark,
                                    sim::configHash(m.configs[c]), 0,
                                    m.configs[c].seed});
                out.results.push_back(&row.byConfig[c].phases[0]);
                out.records.push_back(sim::ResultCache::serializeRecord(
                    out.keys.back(), *out.results.back()));
            }
        return out;
    }();
    return r;
}

void
BM_CellRecordSerialize(benchmark::State &state)
{
    const Fig4Records &r = fig4Records();
    timePerRow(state, r.keys.size(), [&] {
        for (size_t i = 0; i < r.keys.size(); ++i) {
            std::string rec =
                sim::ResultCache::serializeRecord(r.keys[i], *r.results[i]);
            benchmark::DoNotOptimize(rec.data());
        }
    });
}
BENCHMARK(BM_CellRecordSerialize);

void
BM_CellRecordParse(benchmark::State &state)
{
    const Fig4Records &r = fig4Records();
    timePerRow(state, r.keys.size(), [&] {
        for (size_t i = 0; i < r.keys.size(); ++i) {
            sim::PhaseResult pr;
            std::string err =
                sim::ResultCache::parseRecord(r.records[i], r.keys[i], pr);
            if (!err.empty())
                state.SkipWithError(err.c_str());
            benchmark::DoNotOptimize(pr.ipc);
        }
    });
}
BENCHMARK(BM_CellRecordParse);

} // namespace

// Google Benchmark owns the flag grammar here; the shared harness
// flags that make sense without a simulation matrix are honoured
// before gbench sees argv.
int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--list-scenarios") {
            rsep::bench::printScenarioList(std::cout);
            return 0;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
