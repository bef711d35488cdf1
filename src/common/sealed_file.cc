#include "common/sealed_file.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/fault.hh"
#include "common/fnv.hh"

namespace fs = std::filesystem;

namespace rsep
{

namespace
{

constexpr std::string_view trailerTag = "\nchecksum = ";
/** trailerTag + 16 hex + "\n". */
constexpr size_t trailerBytes = 12 + 16 + 1;

} // namespace

std::string
pathToken(const std::string &s)
{
    std::string out;
    for (char c : s)
        out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '-' || c == '+' || c == '_' || c == '@')
                   ? c
                   : '_';
    return out.empty() ? std::string("_") : out;
}

std::string
sealImage(std::string_view head, std::string_view payload)
{
    std::string out;
    out.reserve(head.size() + 8 + payload.size() + trailerBytes);
    out.append(head);
    out.append("payload\n");
    out.append(payload);
    out.append(trailerTag);
    out.append(hex64(fnv1a64(payload)));
    out.push_back('\n');
    return out;
}

bool
peekChecksum(std::string_view image, u64 &out)
{
    if (image.size() < trailerBytes)
        return false;
    std::string_view t = image.substr(image.size() - trailerBytes);
    return t.substr(0, 12) == trailerTag && t.back() == '\n' &&
           parseHex64(std::string(t.substr(12, 16)), out);
}

bool
SealedReader::line(std::string_view &out)
{
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos)
        return false;
    out = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
}

bool
SealedReader::magic(std::string_view magic, std::string &version)
{
    std::string_view l;
    if (!line(l) || l.size() <= magic.size() ||
        l.substr(0, magic.size()) != magic || l[magic.size()] != ' ')
        return false;
    version = std::string(l.substr(magic.size() + 1));
    return true;
}

bool
SealedReader::field(std::string_view key, std::string &value)
{
    std::string_view l;
    if (!line(l) || l.substr(0, key.size()) != key ||
        l.substr(key.size(), 3) != " = ")
        return false;
    value = std::string(l.substr(key.size() + 3));
    return true;
}

std::string
SealedReader::endHeader()
{
    std::string_view l;
    if (!line(l) || l != "payload")
        return "missing payload marker";
    return {};
}

std::string
SealedReader::payload(std::string_view noun,
                      const std::function<std::string(u64)> &fits,
                      std::string_view &payload, u64 &checksum)
{
    if (text.size() < pos || text.size() - pos < trailerBytes)
        return "truncated trailer: " +
               std::to_string(text.size() < pos ? 0 : text.size() - pos) +
               " bytes after the header (offset " + std::to_string(pos) +
               "), need at least " + std::to_string(trailerBytes) +
               " for the checksum trailer";
    u64 payload_bytes = text.size() - pos - trailerBytes;
    if (std::string why = fits(payload_bytes); !why.empty())
        return why;
    u64 want = 0;
    if (!peekChecksum(text, want))
        return "truncated " + std::string(noun) +
               " or missing checksum trailer at offset " +
               std::to_string(pos + payload_bytes);
    std::string_view body = text.substr(pos, payload_bytes);
    u64 got = fnv1a64(body);
    if (got != want)
        return "checksum mismatch over " + std::to_string(payload_bytes) +
               " payload bytes at offset " + std::to_string(pos) +
               ": expected " + hex64(want) + ", computed " + hex64(got);
    payload = body;
    checksum = want;
    return {};
}

bool
injectReadFault(const char *point, std::string_view &view,
                const std::string &origin, std::string &err)
{
    fault::Injected inj = fault::point(point);
    if (!inj)
        return true;
    if (inj.kind == fault::Kind::Delay) {
        fault::sleepMicros(inj.amount);
        return true;
    }
    if (inj.kind == fault::Kind::Errno) {
        err = origin + ": " + point + ": injected " +
              std::strerror(inj.err);
        return false;
    }
    view = view.substr(0, std::min<size_t>(inj.amount, view.size()));
    return true;
}

bool
readFile(const std::string &path, MmapFile &file, std::string_view &view,
         std::string &err, const char *read_point)
{
    if (!file.open(path, &err))
        return false;
    view = file.view();
    return !read_point || injectReadFault(read_point, view, path, err);
}

bool
publishFile(const std::string &path, std::string_view bytes,
            const char *write_point, const char *rename_point,
            std::string *err)
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

    std::string_view out = bytes;
    fault::Injected winj = fault::point(write_point);
    if (winj.kind == fault::Kind::Delay)
        fault::sleepMicros(winj.amount);
    else if (winj.kind == fault::Kind::Errno)
        return fail(std::string("injected ") + std::strerror(winj.err));
    else if (winj.kind == fault::Kind::ShortWrite ||
             winj.kind == fault::Kind::Truncate)
        out = out.substr(0, std::min<size_t>(winj.amount, out.size()));

    // The temp name carries pid AND a process-wide sequence number:
    // worker threads of one process publish the same path (a sweep
    // records a cell's trace once per config; two daemon clients store
    // the same cell), so pid alone would tear.
    static std::atomic<u64> writerSeq{0};
    std::string tmp = path + ".tmp." +
                      std::to_string(static_cast<unsigned long>(::getpid())) +
                      "." + std::to_string(++writerSeq);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return fail("cannot open temp file for writing");
        os << out;
        os.flush();
        if (!os) {
            fs::remove(tmp, ec);
            return fail("write failed");
        }
    }
    if (winj.kind == fault::Kind::ShortWrite) {
        fs::remove(tmp, ec);
        return fail("injected short write (" + std::to_string(out.size()) +
                    " of " + std::to_string(bytes.size()) + " bytes)");
    }
    if (rename_point) {
        fault::Injected rinj = fault::point(rename_point);
        if (rinj.kind == fault::Kind::Delay) {
            fault::sleepMicros(rinj.amount);
        } else if (rinj) {
            fs::remove(tmp, ec);
            return fail(std::string(rename_point) + ": injected failure");
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return fail("rename failed");
    }
    return true;
}

} // namespace rsep
