#include "common/mmap_file.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"

namespace rsep
{

namespace
{

bool
mmapDisabled()
{
    // Resolved once: the override exists for tests and for hosts whose
    // filesystem misbehaves under mmap, neither of which toggles
    // mid-process.
    static const bool disabled = envSet("RSEP_NO_MMAP");
    return disabled;
}

} // namespace

void
MmapFile::close()
{
    if (map) {
        ::munmap(map, mapBytes);
        map = nullptr;
        mapBytes = 0;
    }
    buffer.clear();
    buffer.shrink_to_fit();
    bytes = {};
    isOpen = false;
}

bool
MmapFile::open(const std::string &path, std::string *err)
{
    close();
    auto fail = [&](const char *what) {
        if (err)
            *err = path + ": " + what + ": " + std::strerror(errno);
        return false;
    };

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        return fail("cannot stat");
    }
    size_t size = static_cast<size_t>(st.st_size);

    if (size >= minMapBytes && !mmapDisabled()) {
        void *p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (p != MAP_FAILED) {
            // Trace decode is a single forward pass; tell the kernel.
            ::madvise(p, size, MADV_SEQUENTIAL);
            ::close(fd);
            map = p;
            mapBytes = size;
            bytes = {static_cast<const char *>(p), size};
            isOpen = true;
            return true;
        }
        // Fall through to the read path: some filesystems (and size
        // changes racing the stat) refuse mappings; that is a
        // degradation, not an error.
    }

    buffer.resize(size);
    size_t got = 0;
    while (got < size) {
        ssize_t n = ::read(fd, buffer.data() + got, size - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int saved = errno;
            ::close(fd);
            buffer.clear();
            errno = saved;
            return fail("read failed");
        }
        if (n == 0)
            break; // file shrank under us; expose what we got.
        got += static_cast<size_t>(n);
    }
    ::close(fd);
    buffer.resize(got);
    bytes = {buffer.data(), got};
    isOpen = true;
    return true;
}

} // namespace rsep
