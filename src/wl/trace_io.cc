#include "wl/trace_io.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/mmap_file.hh"

namespace fs = std::filesystem;

namespace rsep::wl
{

namespace
{

/** Workload keys are plain tokens (possibly `name@hash`), but never
 *  trust a path element. */
std::string
sanitized(const std::string &s)
{
    std::string out;
    for (char c : s)
        out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '-' || c == '+' || c == '_' || c == '@')
                   ? c
                   : '_';
    return out.empty() ? std::string("_") : out;
}

// ---- payload varint/delta encoding ----

// Per-record flag bits (see trace_io.hh).
enum : u8 {
    f2SameStatic = 1 << 0, ///< staticIdx == previous record's nextIdx.
    f2Taken = 1 << 1,
    f2SeqNext = 1 << 2,    ///< nextIdx == staticIdx + 1.
    f2ResultZero = 1 << 3,
    f2ResultSame = 1 << 4, ///< result == previous record's result.
    f2EffZero = 1 << 5,    ///< effAddr == 0 (non-memory record).
};

void
putVarint(std::string &s, u64 v)
{
    while (v >= 0x80) {
        s.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    s.push_back(static_cast<char>(v));
}

bool
getVarint(const char *&p, const char *end, u64 &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return false;
        u8 byte = static_cast<u8>(*p++);
        v |= static_cast<u64>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false; // over-long varint.
}

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

/**
 * The validated envelope of a trace image: parsed header plus a view
 * of the (checksummed, size-checked) payload bytes. The payload view
 * aliases the input and is only valid while the input lives.
 */
struct Envelope
{
    TraceHeader header;
    std::string_view payload;
    u64 checksum = 0;
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return error.empty(); }
};

Envelope
parseEnvelope(std::string_view text, const std::string &origin)
{
    Envelope out;
    auto fail = [&](const std::string &msg) {
        out.error = origin + ": " + msg;
        out.payload = {};
        return out;
    };

    // ---- text header (line oriented, fixed order) ----
    size_t pos = 0;
    auto nextLine = [&](std::string_view &line) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            return false;
        line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    auto valueOf = [](std::string_view l, const char *k,
                      std::string &v) {
        std::string prefix = std::string(k) + " = ";
        if (l.substr(0, prefix.size()) != prefix)
            return false;
        v = std::string(l.substr(prefix.size()));
        return true;
    };

    std::string_view line;
    std::string v;
    if (!nextLine(line) || line.substr(0, 11) != "rsep-trace ")
        return fail("not a trace file");
    {
        u64 ver = 0;
        if (!parseU64(std::string(line.substr(11)), ver))
            return fail("bad trace version");
        if (ver == 1)
            return fail("trace format version 1 is retired (this build "
                        "reads version " +
                        std::to_string(traceFormatVersion) +
                        " only); re-record the trace with --record-trace");
        if (ver != traceFormatVersion)
            return fail("unsupported trace version " + std::to_string(ver));
    }
    if (!nextLine(line) || !valueOf(line, "workload", v) || v.empty())
        return fail("bad workload header");
    out.header.workload = v;
    u64 dummy = 0;
    if (!nextLine(line) || !valueOf(line, "workload_hash", v) ||
        v.size() != 16 || !parseHex64(v, dummy))
        return fail("bad workload_hash header");
    out.header.workloadHash = v;
    u64 wide = 0;
    if (!nextLine(line) || !valueOf(line, "phase", v) ||
        !parseU64(v, wide) || wide > 0xffffffffull)
        return fail("bad phase header");
    out.header.phase = static_cast<u32>(wide);
    if (!nextLine(line) || !valueOf(line, "program_length", v) ||
        !parseU64(v, out.header.programLength))
        return fail("bad program_length header");
    if (!nextLine(line) || !valueOf(line, "records", v) ||
        !parseU64(v, out.header.records))
        return fail("bad records header");
    if (!nextLine(line) || line != "payload")
        return fail("missing payload marker");

    // ---- binary payload + trailing checksum ----
    // "\nchecksum = " + 16 hex + "\n"
    constexpr size_t trailerBytes = 12 + 16 + 1;
    if (text.size() < pos || text.size() - pos < trailerBytes)
        return fail("truncated trailer: " +
                    std::to_string(text.size() < pos
                                       ? 0
                                       : text.size() - pos) +
                    " bytes after the header (offset " +
                    std::to_string(pos) + "), need at least " +
                    std::to_string(trailerBytes) +
                    " for the checksum trailer");
    u64 payload_bytes = text.size() - pos - trailerBytes;
    // Every record takes at least its flag byte; reject absurd record
    // counts before reserve() can abort on a corrupt header.
    if (out.header.records > payload_bytes)
        return fail("truncated payload: record count " +
                    std::to_string(out.header.records) +
                    " exceeds the available bytes");
    std::string_view payload = text.substr(pos, payload_bytes);
    std::string_view trailer = text.substr(pos + payload_bytes);
    u64 want = 0;
    if (trailer.substr(0, 12) != "\nchecksum = " ||
        trailer.back() != '\n' ||
        !parseHex64(std::string(trailer.substr(12, 16)), want))
        return fail("truncated trace or missing checksum trailer at "
                    "offset " +
                    std::to_string(pos + payload_bytes));
    u64 got = fnv1a64(payload);
    if (got != want)
        return fail("checksum mismatch over " +
                    std::to_string(payload_bytes) +
                    " payload bytes at offset " + std::to_string(pos) +
                    ": expected " + hex64(want) + ", computed " +
                    hex64(got));
    out.payload = payload;
    out.checksum = want;
    return out;
}

/**
 * Apply an armed trace fault to a file image about to be parsed.
 * Errno modes fail the read outright ("injected <what>"); truncate and
 * short cut the image view — the envelope's size and checksum guards
 * downstream must turn that into a diagnostic, which is exactly what
 * the fault matrix asserts. Returns false when the read should fail.
 */
bool
injectTraceFault(const char *point_name, std::string_view &text,
                 const std::string &origin, std::string &error)
{
    fault::Injected inj = fault::point(point_name);
    if (!inj)
        return true;
    if (inj.kind == fault::Kind::Delay) {
        fault::sleepMicros(inj.amount);
        return true;
    }
    if (inj.kind == fault::Kind::Errno) {
        error = origin + ": " + point_name + ": injected " +
                std::strerror(inj.err);
        return false;
    }
    text = text.substr(0, std::min<size_t>(inj.amount, text.size()));
    return true;
}

/** Validate @p text's envelope and decode its payload into SoA lanes;
 *  with @p header_only the lanes stay empty (payload checksummed). */
DecodedTraceParse
decodeImage(std::string_view text, const std::string &origin,
            bool header_only)
{
    DecodedTraceParse out;
    Envelope env = parseEnvelope(text, origin);
    if (!env.ok()) {
        out.error = std::move(env.error);
        return out;
    }
    auto decoded = std::make_shared<DecodedTrace>();
    decoded->header = env.header;
    decoded->payloadChecksum = env.checksum;
    if (!header_only) {
        decoded->reserveRecords(env.header.records);
        std::string msg;
        if (!decodePayload(env.payload, env.header.records, *decoded,
                           msg)) {
            out.error = origin + ": " + msg;
            return out;
        }
    }
    out.trace = std::move(decoded);
    return out;
}

} // namespace

std::string
tracePath(const std::string &dir, const std::string &workload, u32 phase)
{
    return dir + "/" + sanitized(workload) + "-p" + std::to_string(phase) +
           traceFileExtension;
}

std::string
serializeTrace(const TraceHeader &header,
               const std::vector<DynRecord> &records)
{
    std::string payload = encodePayload(records);
    std::ostringstream os;
    os << "rsep-trace " << traceFormatVersion << "\n";
    os << "workload = " << header.workload << "\n";
    os << "workload_hash = " << header.workloadHash << "\n";
    os << "phase = " << header.phase << "\n";
    os << "program_length = " << header.programLength << "\n";
    os << "records = " << records.size() << "\n";
    os << "payload\n";
    os << payload;
    os << "\nchecksum = " << hex64(fnv1a64(payload)) << "\n";
    return os.str();
}

DecodedTraceParse
decodeTraceImage(std::string_view text, const std::string &origin)
{
    DecodedTraceParse out;
    // "trace.decode" injects here so every decode path — the tooling
    // loader and the shared DecodedTraceCache alike — is covered.
    if (!injectTraceFault("trace.decode", text, origin, out.error))
        return out;
    return decodeImage(text, origin, /*header_only=*/false);
}

DecodedTraceParse
loadDecodedTrace(const std::string &path, bool header_only)
{
    DecodedTraceParse out;
    MmapFile file;
    if (!file.open(path, &out.error))
        return out;
    std::string_view view = file.view();
    if (!injectTraceFault("trace.read", view, path, out.error))
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
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = path + ": " + msg;
        return false;
    };
    std::error_code ec;
    fs::path parent = fs::path(path).parent_path();
    if (!parent.empty()) {
        fs::create_directories(parent, ec);
        if (ec)
            return fail(ec.message());
    }
    std::string text = serializeTrace(header, records);

    // "trace.write" faults: errno modes fail the write; short fails it
    // after leaving no file behind; truncate *publishes* a torn trace —
    // the checksum trailer is gone, so the next read must diagnose it.
    std::string_view out_text = text;
    fault::Injected winj = fault::point("trace.write");
    if (winj.kind == fault::Kind::Delay)
        fault::sleepMicros(winj.amount);
    else if (winj.kind == fault::Kind::Errno)
        return fail(std::string("injected ") + std::strerror(winj.err));
    else if (winj.kind == fault::Kind::ShortWrite ||
             winj.kind == fault::Kind::Truncate)
        out_text = out_text.substr(
            0, std::min<size_t>(winj.amount, out_text.size()));

    // Atomic publish (cf. the result cache): a concurrent reader sees
    // the old trace or the new one, never a torn write. The temp name
    // carries pid AND a process-wide sequence number: one matrix run
    // records a (workload, phase) trace once per config, on different
    // worker threads of the same process, so pid alone would tear.
    static std::atomic<u64> writerSeq{0};
    std::string tmp = path + ".tmp." +
                      std::to_string(static_cast<unsigned long>(::getpid())) +
                      "." + std::to_string(++writerSeq);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return fail("cannot open temp file for writing");
        os << out_text;
        os.flush();
        if (!os) {
            fs::remove(tmp, ec);
            return fail("write failed");
        }
    }
    if (winj.kind == fault::Kind::ShortWrite) {
        fs::remove(tmp, ec);
        return fail("injected short write (" +
                    std::to_string(out_text.size()) + " of " +
                    std::to_string(text.size()) + " bytes)");
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return fail("rename failed");
    }
    return true;
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
