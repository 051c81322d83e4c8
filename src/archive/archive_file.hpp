#ifndef FRAZ_ARCHIVE_ARCHIVE_FILE_HPP
#define FRAZ_ARCHIVE_ARCHIVE_FILE_HPP

/// \file archive_file.hpp
/// The file transport behind ArchiveWriter's and ArchiveReader's path
/// overloads: an append-only FILE* sink for writes and a positioned-read
/// source (mmap, or pread on POSIX) for reads.  The writer and reader
/// themselves live in `archive/archive.hpp`.

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
