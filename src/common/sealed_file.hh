/**
 * @file
 * The one file layer under everything the simulator persists: recorded
 * traces (`.rtr`), sample timelines (`.rts`) and result-cache records
 * (`.cell`). Each format keeps its own header keys and record codec;
 * the rules they share live here once:
 *
 * - pathToken(): the sanitizer for names that become path components.
 * - putVarint()/getVarint(): the LEB128 varint codec of the payloads.
 * - sealImage()/SealedReader/peekChecksum(): the sealed envelope
 *
 *       <magic> <version>
 *       key = value            # one line per header key, fixed order
 *       payload
 *       <payload bytes>
 *       checksum = <16 hex>    # FNV-1a 64 of the payload bytes
 *
 *   where the payload is followed by "\nchecksum = ", so the trailer is
 *   a fixed 29 bytes at the end of the file.
 * - readFile()/publishFile(): reads through MmapFile and atomic
 *   temp + rename publishes, each with its fault points (common/fault.hh).
 */

#ifndef RSEP_COMMON_SEALED_FILE_HH
#define RSEP_COMMON_SEALED_FILE_HH

#include <functional>
#include <string>
#include <string_view>

#include "common/mmap_file.hh"
#include "common/types.hh"

namespace rsep
{

/** @p s as a path component: anything but [A-Za-z0-9.+_@-] becomes
 *  '_' (workload keys may be `name@hash`), and "" becomes "_". */
std::string pathToken(const std::string &s);

// ---------------------------------------------------------- varints
// Inline: the `.rtr` decode loop calls getVarint per record field.

inline void
putVarint(std::string &s, u64 v)
{
    while (v >= 0x80) {
        s.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    s.push_back(static_cast<char>(v));
}

/** Decode one varint at @p p, advancing it. False when the input ends
 *  first or the varint runs past 64 bits. */
inline bool
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

// ---------------------------------------------------- sealed envelope

/** Seal @p payload under @p head (the magic line and the `key = value`
 *  lines, each ending in '\n'): the complete file image. */
std::string sealImage(std::string_view head, std::string_view payload);

/** Read the payload checksum out of the fixed trailer of @p image
 *  without parsing anything else. False when the trailer is malformed. */
bool peekChecksum(std::string_view image, u64 &out);

/**
 * Line-by-line reader of a sealed image. The header calls come in file
 * order; the owner words its own header diagnostics, while the
 * envelope's shared diagnostics come back from endHeader() and
 * payload() as strings (empty on success, no origin prefix).
 */
class SealedReader
{
  public:
    explicit SealedReader(std::string_view image) : text(image) {}

    /** The first line reads "<magic> <version>"; @p version gets the
     *  text after the space. */
    bool magic(std::string_view magic, std::string &version);

    /** The next line reads "<key> = <value>". */
    bool field(std::string_view key, std::string &value);

    /** The "payload" marker line that ends the header. */
    std::string endHeader();

    /**
     * Split the rest of the image into payload and checksum trailer and
     * verify the checksum. @p fits(payload_bytes) is the format's
     * minimum-size check for its header record count: it runs before
     * the trailer is read (so a corrupt count never reaches reserve())
     * and returns a diagnostic or "". @p noun ("trace", "samples")
     * names the file kind in the missing-trailer diagnostic.
     */
    std::string payload(std::string_view noun,
                        const std::function<std::string(u64)> &fits,
                        std::string_view &payload, u64 &checksum);

  private:
    bool line(std::string_view &out);

    std::string_view text;
    size_t pos = 0;
};

// ------------------------------------------------- reads and publishes

/**
 * Apply the fault armed at @p point (if any) to @p view, a file image
 * about to be parsed. Errno modes fail the read: false, with @p err set
 * to "origin: point: injected <strerror>". Truncate and short cut the
 * view, so the parser's size and checksum guards must diagnose it.
 * Delay sleeps.
 */
bool injectReadFault(const char *point, std::string_view &view,
                     const std::string &origin, std::string &err);

/** Open @p path through @p file and point @p view at its bytes, after
 *  injectReadFault(@p read_point) when one is given. False + @p err
 *  ("path: ...") when the file cannot be read. */
bool readFile(const std::string &path, MmapFile &file,
              std::string_view &view, std::string &err,
              const char *read_point = nullptr);

/**
 * Publish @p bytes at @p path atomically: create the parent directory,
 * write a temp file named for this process and this call, rename it
 * over @p path. A concurrent reader sees the old file or the new one,
 * never a torn write.
 *
 * @p write_point is consulted before the write: delay sleeps, errno
 * modes fail, short writes a prefix and then fails, truncate publishes
 * the prefix (silent corruption the next reader must diagnose).
 * @p rename_point, when given, is consulted before the rename: delay
 * sleeps, any other mode fails. False + @p err ("path: message") on
 * failure, with no temp file left behind.
 */
bool publishFile(const std::string &path, std::string_view bytes,
                 const char *write_point, const char *rename_point,
                 std::string *err);

} // namespace rsep

#endif // RSEP_COMMON_SEALED_FILE_HH
