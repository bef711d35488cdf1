#include "wl/trace_io.hh"

#include <sstream>

#include "common/env.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/sealed_file.hh"

namespace rsep::wl
{

namespace
{

// ---- payload delta encoding ----

// Per-record flag bits (see trace_io.hh).
enum : u8 {
    f2SameStatic = 1 << 0, ///< staticIdx == previous record's nextIdx.
    f2Taken = 1 << 1,
    f2SeqNext = 1 << 2,    ///< nextIdx == staticIdx + 1.
    f2ResultZero = 1 << 3,
    f2ResultSame = 1 << 4, ///< result == previous record's result.
    f2EffZero = 1 << 5,    ///< effAddr == 0 (non-memory record).
};

u64
zigzag(u64 v)
{
    s64 sv = static_cast<s64>(v);
    return (static_cast<u64>(sv) << 1) ^ static_cast<u64>(sv >> 63);
}

u64
unzigzag(u64 v)
{
    return (v >> 1) ^ (~(v & 1) + 1);
}

std::string
encodePayload(const std::vector<DynRecord> &records)
{
    std::string payload;
    payload.reserve(records.size() * 4); // typical record: 1-4 bytes.
    u32 prev_next = 0;
    u64 prev_result = 0;
    Addr prev_eff = 0; ///< last memory record's address.
    for (const DynRecord &r : records) {
        u8 flags = 0;
        if (r.staticIdx == prev_next)
            flags |= f2SameStatic;
        if (r.taken)
            flags |= f2Taken;
        if (r.nextIdx == r.staticIdx + 1)
            flags |= f2SeqNext;
        if (r.result == 0)
            flags |= f2ResultZero;
        else if (r.result == prev_result)
            flags |= f2ResultSame;
        if (r.effAddr == 0)
            flags |= f2EffZero;
        payload.push_back(static_cast<char>(flags));
        if (!(flags & f2SameStatic))
            putVarint(payload, r.staticIdx);
        if (!(flags & f2SeqNext))
            putVarint(payload,
                      zigzag(static_cast<u64>(r.nextIdx) -
                             static_cast<u64>(r.staticIdx) - 1));
        if (!(flags & (f2ResultZero | f2ResultSame)))
            putVarint(payload, zigzag(r.result - prev_result));
        if (!(flags & f2EffZero)) {
            putVarint(payload, zigzag(r.effAddr - prev_eff));
            prev_eff = r.effAddr;
        }
        prev_next = r.nextIdx;
        prev_result = r.result;
    }
    return payload;
}

/**
 * Decode a payload of @p count records, appending each to @p out's
 * lanes. The payload view is read in place (zero-copy off an mmap).
 */
bool
decodePayload(std::string_view payload, u64 count, DecodedTrace &out,
              std::string &msg)
{
    const char *p = payload.data();
    const char *end = p + payload.size();
    u32 prev_next = 0;
    u64 prev_result = 0;
    Addr prev_eff = 0;
    // Truncation diagnostics carry the byte offset: a torn download or
    // short copy fails here, and "record 48127" alone doesn't say
    // where in the file to look.
    auto bad = [&](const char *what, u64 i) {
        msg = std::string(what) + " at record " + std::to_string(i) +
              " (payload offset " +
              std::to_string(static_cast<u64>(p - payload.data())) +
              " of " + std::to_string(payload.size()) + " bytes)";
        return false;
    };
    for (u64 i = 0; i < count; ++i) {
        if (p == end)
            return bad("truncated payload", i);
        u8 flags = static_cast<u8>(*p++);
        DynRecord r;
        u64 v = 0;
        if (flags & f2SameStatic) {
            r.staticIdx = prev_next;
        } else {
            if (!getVarint(p, end, v) || v > 0xffffffffull)
                return bad("bad staticIdx varint", i);
            r.staticIdx = static_cast<u32>(v);
        }
        if (flags & f2SeqNext) {
            r.nextIdx = r.staticIdx + 1;
        } else {
            if (!getVarint(p, end, v))
                return bad("bad nextIdx varint", i);
            u64 next = static_cast<u64>(r.staticIdx) + 1 + unzigzag(v);
            if ((next & 0xffffffffull) != next)
                return bad("nextIdx overflow", i);
            r.nextIdx = static_cast<u32>(next);
        }
        if (flags & f2ResultZero) {
            r.result = 0;
        } else if (flags & f2ResultSame) {
            r.result = prev_result;
        } else {
            if (!getVarint(p, end, v))
                return bad("bad result varint", i);
            r.result = prev_result + unzigzag(v);
        }
        if (flags & f2EffZero) {
            r.effAddr = 0;
        } else {
            if (!getVarint(p, end, v))
                return bad("bad effAddr varint", i);
            r.effAddr = prev_eff + unzigzag(v);
            prev_eff = r.effAddr;
        }
        r.taken = (flags & f2Taken) != 0;
        prev_next = r.nextIdx;
        prev_result = r.result;
        out.appendRecord(r);
    }
    if (p != end) {
        msg = "payload has " + std::to_string(end - p) +
              " trailing bytes after the last record";
        return false;
    }
    return true;
}

/** Validate @p text's envelope and decode its payload into SoA lanes;
 *  with @p header_only the lanes stay empty (payload checksummed). */
DecodedTraceParse
decodeImage(std::string_view text, const std::string &origin,
            bool header_only)
{
    DecodedTraceParse out;
    auto fail = [&](const std::string &msg) {
        out.error = origin + ": " + msg;
        return out;
    };
    auto decoded = std::make_shared<DecodedTrace>();
    TraceHeader &h = decoded->header;
    SealedReader in(text);
    std::string v;
    if (!in.magic("rsep-trace", v))
        return fail("not a trace file");
    u64 ver = 0;
    if (!parseU64(v, ver))
        return fail("bad trace version");
    if (ver == 1)
        return fail("trace format version 1 is retired (this build "
                    "reads version " +
                    std::to_string(traceFormatVersion) +
                    " only); re-record the trace with --record-trace");
    if (ver != traceFormatVersion)
        return fail("unsupported trace version " + std::to_string(ver));
    if (!in.field("workload", v) || v.empty())
        return fail("bad workload header");
    h.workload = v;
    u64 dummy = 0;
    if (!in.field("workload_hash", v) || v.size() != 16 ||
        !parseHex64(v, dummy))
        return fail("bad workload_hash header");
    h.workloadHash = v;
    u64 wide = 0;
    if (!in.field("phase", v) || !parseU64(v, wide) || wide > 0xffffffffull)
        return fail("bad phase header");
    h.phase = static_cast<u32>(wide);
    if (!in.field("program_length", v) || !parseU64(v, h.programLength))
        return fail("bad program_length header");
    if (!in.field("records", v) || !parseU64(v, h.records))
        return fail("bad records header");
    if (std::string why = in.endHeader(); !why.empty())
        return fail(why);

    // Every record takes at least its flag byte; reject absurd record
    // counts before reserve() can abort on a corrupt header.
    auto fits = [&](u64 payload_bytes) -> std::string {
        if (h.records <= payload_bytes)
            return {};
        return "truncated payload: record count " +
               std::to_string(h.records) + " exceeds the available bytes";
    };
    std::string_view payload;
    if (std::string why =
            in.payload("trace", fits, payload, decoded->payloadChecksum);
        !why.empty())
        return fail(why);
    if (!header_only) {
        decoded->reserveRecords(h.records);
        std::string msg;
        if (!decodePayload(payload, h.records, *decoded, msg))
            return fail(msg);
    }
    out.trace = std::move(decoded);
    return out;
}

} // namespace

std::string
tracePath(const std::string &dir, const std::string &workload, u32 phase)
{
    return dir + "/" + pathToken(workload) + "-p" + std::to_string(phase) +
           traceFileExtension;
}

std::string
serializeTrace(const TraceHeader &header,
               const std::vector<DynRecord> &records)
{
    std::ostringstream os;
    os << "rsep-trace " << traceFormatVersion << "\n";
    os << "workload = " << header.workload << "\n";
    os << "workload_hash = " << header.workloadHash << "\n";
    os << "phase = " << header.phase << "\n";
    os << "program_length = " << header.programLength << "\n";
    os << "records = " << records.size() << "\n";
    return sealImage(os.str(), encodePayload(records));
}

DecodedTraceParse
decodeTraceImage(std::string_view text, const std::string &origin)
{
    DecodedTraceParse out;
    // "trace.decode" injects here so every decode path — the tooling
    // loader and the shared DecodedTraceCache alike — is covered.
    if (!injectReadFault("trace.decode", text, origin, out.error))
        return out;
    return decodeImage(text, origin, /*header_only=*/false);
}

DecodedTraceParse
loadDecodedTrace(const std::string &path, bool header_only)
{
    DecodedTraceParse out;
    MmapFile file;
    std::string_view view;
    if (!readFile(path, file, view, out.error, "trace.read"))
        return out;
    // Header-only reads decode nothing, so only trace.read covers them.
    return header_only ? decodeImage(view, path, /*header_only=*/true)
                       : decodeTraceImage(view, path);
}

std::shared_ptr<const DecodedTrace>
DecodedTrace::fromRecords(TraceHeader header,
                          const std::vector<DynRecord> &records)
{
    auto out = std::make_shared<DecodedTrace>();
    header.records = records.size();
    out->header = std::move(header);
    out->reserveRecords(records.size());
    for (const DynRecord &r : records)
        out->appendRecord(r);
    return out;
}

bool
writeTraceFile(const std::string &path, const TraceHeader &header,
               const std::vector<DynRecord> &records, std::string *err)
{
    // A "trace.write" truncate publishes a torn trace: the checksum
    // trailer is gone, so the next read must diagnose it.
    return publishFile(path, serializeTrace(header, records), "trace.write",
                       nullptr, err);
}

bool
RecordingTraceSource::write(const std::string &path, TraceHeader header,
                            std::string *err) const
{
    header.records = buffer.size();
    header.programLength = program().size();
    return writeTraceFile(path, header, buffer, err);
}

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const DecodedTrace> decoded, const isa::Program &program,
    std::string origin_label)
    : trace(std::move(decoded)), prog(program),
      origin(std::move(origin_label))
{
    if (!trace)
        rsep_fatal("replay: %s: null decoded trace", origin.c_str());
    if (trace->header.programLength != prog.size())
        rsep_fatal("replay: %s: program length %llu does not match the "
                   "registry workload's %zu instructions",
                   origin.c_str(),
                   static_cast<unsigned long long>(
                       trace->header.programLength),
                   prog.size());
}

const DynRecord &
ReplayTraceSource::step()
{
    if (next >= trace->size())
        rsep_fatal("replay: %s: trace exhausted after %zu records — the "
                   "trace was recorded under a smaller run sizing than "
                   "this replay needs; re-record with at least this "
                   "run's warmup+measure window",
                   origin.c_str(), trace->size());
    const size_t i = next++;
    cur.staticIdx = trace->staticIdx[i];
    cur.nextIdx = trace->nextIdx[i];
    cur.result = trace->result[i];
    cur.effAddr = trace->effAddr[i];
    cur.taken = trace->taken[i] != 0;
    if (cur.staticIdx >= prog.size() || cur.nextIdx >= prog.size())
        rsep_fatal("replay: %s: record %llu indexes outside the program "
                   "(staticIdx %u, nextIdx %u, program %zu)",
                   origin.c_str(), static_cast<unsigned long long>(i),
                   cur.staticIdx, cur.nextIdx, prog.size());
    return cur;
}

} // namespace rsep::wl
