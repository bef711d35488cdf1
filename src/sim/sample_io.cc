#include "sim/sample_io.hh"

#include <sstream>

#include "common/env.hh"
#include "common/fnv.hh"
#include "common/sealed_file.hh"

namespace rsep::sim
{

std::string
samplePath(const std::string &dir, const std::string &workload,
           const std::string &config_hash, u32 phase)
{
    return dir + "/" + pathToken(workload) + "-" + pathToken(config_hash) +
           "-p" + std::to_string(phase) + sampleFileExtension;
}

std::string
serializeSamples(const SampleSeriesHeader &header,
                 const std::vector<core::StatSample> &rows)
{
    std::string payload;
    payload.reserve(rows.size() * core::sampleFieldCount());
    for (core::StatSample row : rows)
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                putVarint(payload, f);
            });
    std::ostringstream os;
    os << "rsep-samples " << header.version << "\n";
    os << "workload = " << header.workload << "\n";
    os << "scenario = " << header.scenario << "\n";
    os << "config_hash = " << header.configHash << "\n";
    os << "phase = " << header.phase << "\n";
    os << "period = " << header.period << "\n";
    os << "fields = " << core::sampleFieldNames() << "\n";
    os << "rows = " << rows.size() << "\n";
    return sealImage(os.str(), payload);
}

SamplesParse
parseSamplesText(std::string_view text, const std::string &origin,
                 bool header_only)
{
    SamplesParse out;
    auto fail = [&](const std::string &msg) {
        out.error = origin + ": " + msg;
        out.rows.clear();
        return out;
    };

    SealedReader in(text);
    std::string v;
    u64 ver = 0;
    if (!in.magic("rsep-samples", v))
        return fail("not a sample file");
    if (!parseU64(v, ver) || ver != core::sampleSchemaVersion)
        return fail("unsupported sample schema version");
    out.header.version = static_cast<unsigned>(ver);
    if (!in.field("workload", v) || v.empty())
        return fail("bad workload header");
    out.header.workload = v;
    if (!in.field("scenario", v))
        return fail("bad scenario header");
    out.header.scenario = v;
    u64 dummy = 0;
    if (!in.field("config_hash", v) || v.size() != 16 ||
        !parseHex64(v, dummy))
        return fail("bad config_hash header");
    out.header.configHash = v;
    u64 wide = 0;
    if (!in.field("phase", v) || !parseU64(v, wide) || wide > 0xffffffffull)
        return fail("bad phase header");
    out.header.phase = static_cast<u32>(wide);
    if (!in.field("period", v) || !parseU64(v, out.header.period) ||
        out.header.period == 0)
        return fail("bad period header");
    // The field list pins what the payload columns mean: a reader
    // compiled with a different schema must not guess.
    if (!in.field("fields", v) || v != core::sampleFieldNames())
        return fail("field list does not match this build's sample "
                    "schema");
    if (!in.field("rows", v) || !parseU64(v, out.header.rows))
        return fail("bad rows header");
    if (std::string why = in.endHeader(); !why.empty())
        return fail(why);
    if (header_only)
        return out;

    // Every field takes at least one varint byte; reject absurd row
    // counts before reserve() can abort on a corrupt header.
    const size_t fields = core::sampleFieldCount();
    auto fits = [&](u64 payload_bytes) -> std::string {
        if (out.header.rows <= payload_bytes / (fields ? fields : 1) + 1)
            return {};
        return "truncated payload: row count " +
               std::to_string(out.header.rows) +
               " exceeds the available bytes";
    };
    std::string_view payload;
    u64 checksum = 0;
    if (std::string why = in.payload("samples", fits, payload, checksum);
        !why.empty())
        return fail(why);

    const char *p = payload.data();
    const char *end = p + payload.size();
    out.rows.reserve(out.header.rows);
    for (u64 r = 0; r < out.header.rows; ++r) {
        core::StatSample row;
        bool ok = true;
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                ok = ok && getVarint(p, end, f);
            });
        if (!ok)
            return fail("truncated payload at row " + std::to_string(r) +
                        " (payload offset " +
                        std::to_string(
                            static_cast<u64>(p - payload.data())) +
                        " of " + std::to_string(payload.size()) +
                        " bytes)");
        out.rows.push_back(row);
    }
    if (p != end)
        return fail("payload has " + std::to_string(end - p) +
                    " trailing bytes");
    return out;
}

SamplesParse
parseSamplesFile(const std::string &path, bool header_only)
{
    SamplesParse out;
    MmapFile file;
    std::string_view text;
    if (!readFile(path, file, text, out.error))
        return out;
    return parseSamplesText(text, path, header_only);
}

bool
writeSamplesFile(const std::string &path, const SampleSeriesHeader &header,
                 const std::vector<core::StatSample> &rows, std::string *err)
{
    SampleSeriesHeader h = header;
    h.rows = rows.size();
    // An "rts.flush" truncate publishes a torn series: the next parse
    // must report the truncation, never assert.
    return publishFile(path, serializeSamples(h, rows), "rts.flush",
                       nullptr, err);
}

void
writeSamplesCsv(std::ostream &os, const SampleSeriesHeader &header,
                const std::vector<core::StatSample> &rows, bool with_header)
{
    if (with_header)
        os << sampleCsvIdColumns << "," << core::sampleFieldNames() << "\n";
    for (core::StatSample row : rows) {
        os << header.workload << "," << header.scenario << ","
           << header.configHash << "," << header.phase;
        core::visitSampleFields(
            row, [&](const char *, u64 &f, core::SampleFieldKind) {
                os << "," << f;
            });
        os << "\n";
    }
}

} // namespace rsep::sim
