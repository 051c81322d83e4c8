#ifndef FRAZ_ARCHIVE_ARCHIVE_FILE_HPP
#define FRAZ_ARCHIVE_ARCHIVE_FILE_HPP

/// \file archive_file.hpp
/// The transports behind ArchiveWriter and ArchiveReader: the positioned-read
/// ChunkSource every reader fetches through, the file source behind its path
/// overload (mmap, or pread on POSIX), and the append-only FILE* sink behind
/// the writer's.  The writer and reader themselves live in
/// `archive/archive.hpp`.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "archive/archive.hpp"
#include "archive/pipeline.hpp"

namespace fraz::archive {

/// Former names of the single writer and reader, kept for source
/// compatibility.
using ArchiveFileWriter = ArchiveWriter;
using ArchiveFileReader = ArchiveReader;

namespace detail {

/// Positioned-read abstraction of one archive's bytes (memory or file).
class ChunkSource {
public:
  virtual ~ChunkSource() = default;
  /// Total bytes of the archive.
  virtual std::size_t size() const noexcept = 0;
  /// True when fetches are views into an mmap'd file.
  virtual bool mapped() const noexcept = 0;
  /// Return a pointer to \p size bytes at absolute offset \p offset.
  /// Zero-copy transports ignore \p scratch and return into their own
  /// storage; buffered transports fill \p scratch and return its data.  The
  /// pointer stays valid until the next fetch through the same scratch.
  /// Throws CorruptStream (range) or IoError (transport failure).  Safe to
  /// call from many threads at once.
  virtual const std::uint8_t* fetch(std::size_t offset, std::size_t size,
                                    Buffer& scratch) const = 0;
};

/// Append-only sink over a FILE* (not owned).  A failed fwrite throws
/// IoError carrying the errno captured at that call, not whatever a later
/// library call left behind.
class FileSink final : public ByteSink {
public:
  explicit FileSink(std::FILE* file) noexcept : file_(file) {}

  void append(const std::uint8_t* data, std::size_t size) override;

  std::size_t bytes_written() const noexcept override { return written_; }

private:
  std::FILE* file_;
  std::size_t written_ = 0;
};

/// Open \p path as a positioned-read source: an mmap'd view under kAuto
/// where the platform provides one, else positioned reads.  Throws IoError
/// (open/stat/map failure) or CorruptStream (empty file).
std::unique_ptr<ChunkSource> open_file_source(const std::string& path, FileReadMode mode);

}  // namespace detail

}  // namespace fraz::archive

#endif  // FRAZ_ARCHIVE_ARCHIVE_FILE_HPP
