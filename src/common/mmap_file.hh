/**
 * @file
 * Read-only memory-mapped file view with a graceful read() fallback.
 *
 * The trace data path decodes `.rtr` payloads straight out of the page
 * cache: MmapFile maps the file PROT_READ/MAP_PRIVATE and hands out a
 * string_view over the mapping, so repeated decodes of a hot trace
 * never copy the bytes through userspace buffers (cf. ifstream +
 * stringstream, which pays two full copies per read).
 *
 * Fallback semantics: when mmap is unavailable or not worth it — files
 * under minMapBytes (zero-length ones included: mmap(0) is EINVAL),
 * filesystems that refuse mappings, or the `RSEP_NO_MMAP` environment
 * override — the file is read() into a heap buffer instead and the view
 * points at that. Callers cannot tell the difference except through
 * mapped(); every consumer must work identically on both paths (pinned
 * by tests/test_trace_cache.cc).
 */

#ifndef RSEP_COMMON_MMAP_FILE_HH
#define RSEP_COMMON_MMAP_FILE_HH

#include <string>
#include <string_view>
#include <vector>

namespace rsep
{

class MmapFile
{
  public:
    /**
     * Smaller files are read(), not mapped. A result-cache record is a
     * few KiB, and mapping it costs more than reading it: with every
     * file mapped, perfbench serve-mixed (which loads one `.cell` per
     * cell of every request) read hit_p50 ~12% higher, in each of six
     * rounds on a 4-core host. Recorded traces are larger and stay
     * mapped.
     */
    static constexpr size_t minMapBytes = 64 * 1024;

    MmapFile() = default;
    ~MmapFile() { close(); }

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    MmapFile(MmapFile &&other) noexcept { *this = std::move(other); }
    MmapFile &
    operator=(MmapFile &&other) noexcept
    {
        if (this != &other) {
            close();
            map = other.map;
            mapBytes = other.mapBytes;
            buffer = std::move(other.buffer);
            bytes = other.bytes;
            isOpen = other.isOpen;
            other.map = nullptr;
            other.mapBytes = 0;
            other.bytes = {};
            other.isOpen = false;
        }
        return *this;
    }

    /**
     * Map (or, on fallback, read) @p path. Any previous mapping is
     * released first. False + @p err ("path: message") when the file
     * cannot be opened or read; an mmap refusal alone is not an error
     * (the read fallback engages).
     */
    bool open(const std::string &path, std::string *err = nullptr);

    /** The file contents; valid until close()/destruction/reopen. */
    std::string_view view() const { return bytes; }

    bool ok() const { return isOpen; }

    /** True when view() is backed by an actual mapping (false: heap
     *  buffer fallback). Diagnostic only — never branch behaviour. */
    bool mapped() const { return map != nullptr; }

    void close();

  private:
    void *map = nullptr; ///< mmap base, nullptr on the fallback path.
    size_t mapBytes = 0; ///< mapped length (may exceed view size: 0-pad).
    std::vector<char> buffer;
    std::string_view bytes;
    bool isOpen = false;
};

} // namespace rsep

#endif // RSEP_COMMON_MMAP_FILE_HH
