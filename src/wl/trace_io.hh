/**
 * @file
 * The `.rtr` recorded-trace format plus the recording/replay
 * TraceSources built on it.
 *
 * A trace is the committed-path DynRecord stream of one (workload,
 * checkpoint-phase) cell. The stream is purely architectural — it
 * depends only on the workload's program and per-phase init, never on
 * the core configuration — so one recording serves every mechanism arm
 * of a sweep (record once, replay many; warm sweeps skip functional
 * emulation entirely, stacking with the per-cell result cache).
 *
 * On-disk layout: a text header, a binary payload, and a trailing
 * FNV-1a checksum of the payload:
 *
 *     rsep-trace 2
 *     workload = mcf                 # run-cell key (name or name@hash)
 *     workload_hash = 16-hex         # workloadHash of the spec
 *     phase = 0
 *     program_length = 57            # static-instruction count echo
 *     records = 123456
 *     payload
 *     <encoded records>
 *     checksum = 16-hex
 *
 * The payload is one encoding: a per-record flag byte + LEB128
 * varints, exploiting committed-path structure to cut fleet trace-
 * distribution cost several-fold: staticIdx is usually the previous
 * record's nextIdx (1 bit), nextIdx is usually staticIdx+1 (1 bit,
 * else a zigzag delta), results are often zero or repeat the previous
 * record's (1 bit each, else a zigzag delta against the previous
 * result), and effective addresses delta against the previous memory
 * access. Version 1 (raw 25-byte records) is retired: readers reject
 * it with a diagnostic that says to re-record.
 *
 * The read data path is zero-copy (DESIGN.md §11): files come in
 * through MmapFile (page-cache view, read() fallback) and decode
 * straight off the view into the SoA DecodedTrace — the one decoded
 * form, used by replay and tooling alike.
 *
 * The envelope, the varints, the file read and the atomic publish
 * (temp + rename) come from the shared file layer
 * (common/sealed_file.hh); this module owns the header keys and the
 * record codec. A reader rejects —
 * with a diagnostic, never a partial result — version or checksum
 * mismatches, truncation, and malformed headers; replay additionally
 * validates the workload identity and program-length echo against the
 * registry spec it is asked to feed.
 */

#ifndef RSEP_WL_TRACE_IO_HH
#define RSEP_WL_TRACE_IO_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wl/trace_source.hh"

namespace rsep::wl
{

/** The trace-format version every writer emits and readers accept;
 *  bump on any layout change. */
constexpr unsigned traceFormatVersion = 2;

/** Conventional file extension (tracePath appends it). */
constexpr const char *traceFileExtension = ".rtr";

/** Identity header of one `.rtr` file. */
struct TraceHeader
{
    std::string workload;     ///< run-cell key (workloadKey).
    std::string workloadHash; ///< 16-hex workloadHash of the spec.
    u32 phase = 0;
    u64 programLength = 0;    ///< static-instruction count echo.
    u64 records = 0;
};

/** Canonical on-disk location of a cell's trace under @p dir. */
std::string tracePath(const std::string &dir, const std::string &workload,
                      u32 phase);

/** Serialize a complete trace file image (header+payload+checksum). */
std::string serializeTrace(const TraceHeader &header,
                           const std::vector<DynRecord> &records);

/**
 * A fully decoded trace in struct-of-arrays form: the replay window's
 * storage format. The pipeline's fetch path touches staticIdx/nextIdx/
 * taken on every record; result and effAddr matter only to the value-
 * speculation engines and the memory system, so the hot lanes stream
 * contiguously instead of dragging 16 cold bytes per record through
 * the cache. Immutable after decode — DecodedTraceCache shares one
 * instance across every matrix cell replaying the same file.
 */
struct DecodedTrace
{
    TraceHeader header;
    u64 payloadChecksum = 0; ///< cache-key component (trace_cache.hh).

    // Hot lanes (fetch path), index-parallel.
    std::vector<u32> staticIdx;
    std::vector<u32> nextIdx;
    std::vector<u8> taken;
    // Cold lanes.
    std::vector<u64> result;
    std::vector<Addr> effAddr;

    size_t size() const { return staticIdx.size(); }

    /** Decoded footprint of one record across the five lanes. */
    static constexpr u64 bytesPerRecord =
        sizeof(u32) * 2 + sizeof(u8) + sizeof(u64) + sizeof(Addr);

    /** In-memory footprint of the record lanes (LRU accounting). */
    u64 decodedBytes() const { return size() * bytesPerRecord; }

    /** Materialize record @p i (tooling/tests; replay fills in place). */
    DynRecord
    recordAt(size_t i) const
    {
        DynRecord r;
        r.staticIdx = staticIdx[i];
        r.nextIdx = nextIdx[i];
        r.result = result[i];
        r.effAddr = effAddr[i];
        r.taken = taken[i] != 0;
        return r;
    }

    void
    appendRecord(const DynRecord &r)
    {
        staticIdx.push_back(r.staticIdx);
        nextIdx.push_back(r.nextIdx);
        taken.push_back(r.taken ? 1 : 0);
        result.push_back(r.result);
        effAddr.push_back(r.effAddr);
    }

    void
    reserveRecords(size_t n)
    {
        staticIdx.reserve(n);
        nextIdx.reserve(n);
        taken.reserve(n);
        result.reserve(n);
        effAddr.reserve(n);
    }

    /** Build from an in-memory AoS stream (rsep_bench, tests). */
    static std::shared_ptr<const DecodedTrace>
    fromRecords(TraceHeader header, const std::vector<DynRecord> &records);
};

/** Outcome of decoding a trace straight to SoA form. */
struct DecodedTraceParse
{
    std::shared_ptr<const DecodedTrace> trace; ///< null on error.
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return trace != nullptr; }
};

/** Decode a trace image directly into SoA form — one pass over the
 *  (typically mmap'd) bytes, no intermediate record vector. @p origin
 *  labels diagnostics; the view is only read during the call. */
DecodedTraceParse decodeTraceImage(std::string_view text,
                                   const std::string &origin);

/** Map (or read-fallback) and decode a trace file to SoA form. When
 *  @p header_only is set the payload is checksummed but not decoded:
 *  the result carries the header and checksum with empty lanes. */
DecodedTraceParse loadDecodedTrace(const std::string &path,
                                   bool header_only = false);

/** Atomically write a trace file (temp + rename, directories created).
 *  False + @p err on I/O failure. */
bool writeTraceFile(const std::string &path, const TraceHeader &header,
                    const std::vector<DynRecord> &records,
                    std::string *err = nullptr);

/**
 * Pass-through TraceSource that tees every record produced by the
 * wrapped source into an in-memory buffer, for writing out once the
 * timing run completes.
 */
class RecordingTraceSource : public TraceSource
{
  public:
    explicit RecordingTraceSource(TraceSource &inner) : src(inner) {}

    const DynRecord &
    step() override
    {
        const DynRecord &r = src.step();
        buffer.push_back(r);
        return r;
    }

    const isa::Program &program() const override { return src.program(); }

    /**
     * Pull @p n more records from the wrapped source into the buffer
     * without handing them to the consumer — slack appended after the
     * run so a replay under a config with a slightly deeper fetch
     * lookahead does not exhaust the trace.
     */
    void
    recordSlack(u64 n)
    {
        for (u64 i = 0; i < n; ++i)
            buffer.push_back(src.step());
    }

    const std::vector<DynRecord> &records() const { return buffer; }

    /** Write the buffered stream to @p path (atomic). The header's
     *  record count is filled from the buffer. */
    bool write(const std::string &path, TraceHeader header,
               std::string *err = nullptr) const;

  private:
    TraceSource &src;
    std::vector<DynRecord> buffer;
};

/**
 * TraceSource replaying a decoded `.rtr` stream against the workload's
 * registry-built Program. The decoded trace is shared and immutable
 * (many concurrent sources can replay one DecodedTrace); each source
 * keeps only a cursor and materializes the current record from the
 * SoA lanes. Exhausting the stream is fatal (the trace was recorded
 * under a smaller run sizing than the replay asks for); so is a
 * record indexing outside the program.
 */
class ReplayTraceSource : public TraceSource
{
  public:
    /** @p prog must outlive the source (the caller owns the built
     *  workload). @p origin labels diagnostics (e.g. the file path). */
    ReplayTraceSource(std::shared_ptr<const DecodedTrace> decoded,
                      const isa::Program &prog, std::string origin);

    const DynRecord &step() override;
    const isa::Program &program() const override { return prog; }

    const TraceHeader &header() const { return trace->header; }
    u64 consumed() const { return next; }

  private:
    std::shared_ptr<const DecodedTrace> trace;
    const isa::Program &prog;
    std::string origin;
    u64 next = 0;
    DynRecord cur;
};

} // namespace rsep::wl

#endif // RSEP_WL_TRACE_IO_HH
