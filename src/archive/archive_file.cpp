#include "archive/archive_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FRAZ_ARCHIVE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FRAZ_ARCHIVE_HAS_MMAP 0
#endif

namespace fraz::archive {

namespace detail {

namespace {

std::string errno_message(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + errno_detail(errno);
}

#if !FRAZ_ARCHIVE_HAS_MMAP
/// 64-bit-clean positioned seek: std::fseek takes a long, which is 32 bits
/// on some platforms (Windows) — exactly the ones stuck on the FILE* path —
/// and archives larger than RAM routinely exceed 2 GiB.
int seek_to(std::FILE* file, std::size_t offset) {
  if (offset > static_cast<std::size_t>(std::numeric_limits<long>::max())) return -1;
  return std::fseek(file, static_cast<long>(offset), SEEK_SET);
}

/// 64-bit-clean end-of-file position; negative on failure.
std::int64_t size_of(std::FILE* file) {
  if (std::fseek(file, 0, SEEK_END) != 0) return -1;
  return static_cast<std::int64_t>(std::ftell(file));
}
#endif

}  // namespace

void FileSink::append(const std::uint8_t* data, std::size_t size) {
  if (size != 0 && std::fwrite(data, 1, size, file_) != size) {
    // Capture errno at the failing fwrite — before any other call can
    // clobber it — so the error carries the real OS detail (ENOSPC, EIO,
    // EBADF, ...), not a stale or reset value.
    const int write_errno = errno;
    throw IoError("archive: write failed after " + std::to_string(written_) +
                  " bytes: " + errno_detail(write_errno));
  }
  written_ += size;
}

/// Positioned-read source over an archive file: an mmap'd view where the
/// platform provides one; the buffered fallback uses pread on POSIX —
/// per-call offsets on a shared descriptor, no shared file position and no
/// lock, so cold reads from parallel decode workers genuinely overlap.
/// Only the portable non-POSIX fallback still serializes fseek+fread on a
/// FILE* behind a mutex.
class FileSource final : public ChunkSource {
public:
  static std::unique_ptr<FileSource> open(const std::string& path, FileReadMode mode) {
#if FRAZ_ARCHIVE_HAS_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IoError(errno_message("archive: cannot open", path));
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw IoError(errno_message("archive: cannot stat", path));
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      throw CorruptStream("archive: '" + path + "' is empty");
    }
    if (mode != FileReadMode::kBuffered) {
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping keeps the file referenced
      if (map == MAP_FAILED) throw IoError(errno_message("archive: cannot mmap", path));
      return std::unique_ptr<FileSource>(new FileSource(map, size));
    }
    // Buffered mode keeps the descriptor: pread carries its own offset, so
    // concurrent fetches need no coordination at all.
    return std::unique_ptr<FileSource>(new FileSource(fd, size));
#else
    (void)mode;  // no mmap here: every mode reads through the FILE*
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (!file) throw IoError(errno_message("archive: cannot open", path));
    const std::int64_t end = size_of(file);
    if (end < 0) {
      std::fclose(file);
      throw IoError(errno_message("archive: cannot measure", path));
    }
    if (end == 0) {
      std::fclose(file);
      throw CorruptStream("archive: '" + path + "' is empty");
    }
    return std::unique_ptr<FileSource>(new FileSource(file, static_cast<std::size_t>(end)));
#endif
  }

  ~FileSource() override {
#if FRAZ_ARCHIVE_HAS_MMAP
    if (map_) ::munmap(map_, size_);
    if (fd_ >= 0) ::close(fd_);
#else
    if (file_) std::fclose(file_);
#endif
  }

  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  std::size_t size() const noexcept override { return size_; }
  bool mapped() const noexcept override { return map_ != nullptr; }

  const std::uint8_t* fetch(std::size_t offset, std::size_t size,
                            Buffer& scratch) const override {
    if (offset > size_ || size > size_ - offset)
      throw CorruptStream("archive: read beyond the end of the archive");
    if (map_) return static_cast<const std::uint8_t*>(map_) + offset;
    scratch.resize(size);
#if FRAZ_ARCHIVE_HAS_MMAP
    // Positioned reads on the shared descriptor: each call names its own
    // offset, so parallel workers' cold fetches overlap instead of queueing
    // on one file position.  Loop: pread may return short on signals.
    std::size_t got = 0;
    while (got < size) {
      const ::ssize_t n = ::pread(fd_, scratch.data() + got, size - got,
                                  static_cast<off_t>(offset + got));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw IoError("archive: pread failed: " + std::string(std::strerror(errno)));
      }
      if (n == 0) throw IoError("archive: short read");
      got += static_cast<std::size_t>(n);
    }
#else
    std::lock_guard lock(io_mutex_);
    if (seek_to(file_, offset) != 0)
      throw IoError("archive: seek failed: " + std::string(std::strerror(errno)));
    if (std::fread(scratch.data(), 1, size, file_) != size)
      throw IoError("archive: short read");
#endif
    return scratch.data();
  }

private:
  FileSource(void* map, std::size_t size) : map_(map), size_(size) {}
#if FRAZ_ARCHIVE_HAS_MMAP
  FileSource(int fd, std::size_t size) : size_(size), fd_(fd) {}
#else
  FileSource(std::FILE* file, std::size_t size) : size_(size), file_(file) {}
#endif

  // One representation per platform: POSIX serves buffered fetches through
  // pread on fd_; only the portable fallback carries a FILE* and the mutex
  // that serializes its shared file position.
  void* map_ = nullptr;
  std::size_t size_ = 0;
#if FRAZ_ARCHIVE_HAS_MMAP
  int fd_ = -1;
#else
  std::FILE* file_ = nullptr;
  mutable std::mutex io_mutex_;
#endif
};

std::unique_ptr<ChunkSource> open_file_source(const std::string& path, FileReadMode mode) {
  return FileSource::open(path, mode);
}

}  // namespace detail

}  // namespace fraz::archive
