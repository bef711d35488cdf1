/**
 * @file
 * `.rts` time-series sample files: the on-disk form of one cell's
 * StatSample series (see core/sampler.hh). The file is a sealed image
 * of the shared file layer (common/sealed_file.hh), like a `.rtr`
 * trace: a line-oriented text header naming the cell identity, a
 * LEB128-varint binary payload, and a trailing FNV-1a checksum. Writes
 * publish atomically (temp + rename), so a concurrent reader sees the
 * old series or the new one, never a torn file.
 *
 * The header echoes the schema version AND the comma-joined field list
 * the payload was written under; a reader whose compiled-in schema
 * disagrees rejects the file with a diagnostic instead of silently
 * misinterpreting columns.
 */

#ifndef RSEP_SIM_SAMPLE_IO_HH
#define RSEP_SIM_SAMPLE_IO_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sampler.hh"

namespace rsep::sim
{

/** `.rts` suffix of sample-series files. */
inline constexpr const char *sampleFileExtension = ".rts";

/** Identity and provenance of one cell's sample series. */
struct SampleSeriesHeader
{
    unsigned version = core::sampleSchemaVersion;
    std::string workload;   ///< benchmark name.
    std::string scenario;   ///< config label (scenario arm name).
    std::string configHash; ///< 16-hex config identity.
    u32 phase = 0;          ///< checkpoint index.
    u64 period = 0;         ///< sample period in cycles.
    u64 rows = 0;           ///< row count (filled by the serializer).
};

/** Canonical sample-file path for one cell:
 *  `<dir>/<workload>-<config_hash>-p<phase>.rts` (components
 *  sanitized; the hash keeps arms of a sweep apart). */
std::string samplePath(const std::string &dir, const std::string &workload,
                       const std::string &config_hash, u32 phase);

/** Serialize header + rows into the full `.rts` byte string. */
std::string serializeSamples(const SampleSeriesHeader &header,
                             const std::vector<core::StatSample> &rows);

/** Result of parsing a `.rts` image. */
struct SamplesParse
{
    SampleSeriesHeader header;
    std::vector<core::StatSample> rows;
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return error.empty(); }
};

/** Parse a full `.rts` image (checksum-verified). @p header_only stops
 *  after the text header — payload untouched, rows left empty. */
SamplesParse parseSamplesText(std::string_view text,
                              const std::string &origin,
                              bool header_only = false);

/** Load and parse @p path. */
SamplesParse parseSamplesFile(const std::string &path,
                              bool header_only = false);

/** Write a `.rts` file atomically (temp + rename, directories created
 *  as needed). False + @p err on failure. */
bool writeSamplesFile(const std::string &path,
                      const SampleSeriesHeader &header,
                      const std::vector<core::StatSample> &rows,
                      std::string *err = nullptr);

/** The identity-column prefix every sample CSV row carries. */
inline constexpr const char *sampleCsvIdColumns =
    "benchmark,scenario,config_hash,phase";

/** Write rows as CSV: the identity columns then one column per
 *  StatSample field in schema order. @p with_header controls the
 *  header line (off when appending series to a merged CSV). */
void writeSamplesCsv(std::ostream &os, const SampleSeriesHeader &header,
                     const std::vector<core::StatSample> &rows,
                     bool with_header = true);

} // namespace rsep::sim

#endif // RSEP_SIM_SAMPLE_IO_HH
