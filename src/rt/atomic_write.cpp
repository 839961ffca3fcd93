#include "rt/atomic_write.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "rt/errors.hpp"

namespace plee {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
    throw plee_error("atomic_write_text: " + what + " '" + path +
                     "': " + std::strerror(errno));
}

std::string dirname_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

}  // namespace

void atomic_write_text(const std::string& path, const std::string& text) {
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("open failed for", tmp);
    std::size_t off = 0;
    while (off < text.size()) {
        const ::ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw_errno("write failed for", tmp);
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw_errno("fsync failed for", tmp);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw_errno("rename failed onto", path);
    }
    // Persist the rename itself: fsync the containing directory.  Failure
    // here is not fatal — the data is durable, only the directory entry may
    // lag — so a directory that cannot be opened (exotic filesystems) is
    // tolerated.
    const int dfd = ::open(dirname_of(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

}  // namespace plee
