#ifndef FRAZ_TESTS_ARCHIVE_FIXTURES_HPP
#define FRAZ_TESTS_ARCHIVE_FIXTURES_HPP

/// The frozen read-side archive fixtures under tests/corpus/archive_format/.
/// Writers emit only v3; these files were written by the last build that
/// could still write v1 and v2, and are checked in so the read path for the
/// old formats stays tested forever.  Each entry names the input and writer
/// settings that produced it, so a test can compare the fixture against a
/// fresh v3 write of the same input: the chunk region must be byte-identical
/// (only the manifest and footer layouts differ).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.hpp"
#include "codec/checksum.hpp"

namespace fraz::testhelpers {

/// Whole contents of the file at \p path (empty, with a failure, if missing).
inline std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

/// Absolute path of a checked-in corpus file (\p rel under tests/corpus/).
inline std::string corpus_path(const std::string& rel) {
  return std::string(FRAZ_TEST_CORPUS_DIR) + "/" + rel;
}

/// One frozen archive: where it lives and the CRC-32 of the whole file.
struct FrozenArchive {
  const char* rel;
  std::uint32_t file_crc;
};

/// v1: sz, ρt 6.0, ε 0.2, chunk extent 2, make_field(f32, {8, 14, 10}).
inline constexpr FrozenArchive kFrozenV1{"archive_format/archive_v1.fraz", 0xd6940aaeu};

/// The three v2 goldens (1 worker and N workers write the same bytes):
///  - sz step 0: ρt 6.0, ε 0.2, extent 2, make_field(f32, {24, 16, 12});
///  - sz step 1: make_field(f32, {24, 16, 12}, 51.0), written second through
///    the same writer (its chunks warm-start from step 0's bounds);
///  - zfp: ρt 8.0, ε 0.2, extent 3, make_field(f64, {12, 20, 14}).
inline constexpr FrozenArchive kGoldenV2SzStep0{"archive_format/golden_v2_sz_step0.fraz",
                                                0x8208fb7du};
inline constexpr FrozenArchive kGoldenV2SzStep1{"archive_format/golden_v2_sz_step1.fraz",
                                                0xe1792933u};
inline constexpr FrozenArchive kGoldenV2Zfp{"archive_format/golden_v2_zfp.fraz",
                                            0xbf6d43ffu};

/// Read a frozen archive and check its file CRC.
inline std::vector<std::uint8_t> load_frozen(const FrozenArchive& fixture) {
  std::vector<std::uint8_t> bytes = read_file(corpus_path(fixture.rel));
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), fixture.file_crc)
      << fixture.rel << " changed; frozen fixtures must never be rewritten";
  return bytes;
}

/// The chunk-region bytes of an opened archive.
inline std::vector<std::uint8_t> chunk_region(const std::uint8_t* bytes,
                                              const archive::ArchiveInfo& info) {
  std::size_t size = 0;
  for (const archive::FieldInfo& field : info.fields) size += field.payload_bytes;
  const std::uint8_t* begin = bytes + info.chunk_region;
  return std::vector<std::uint8_t>(begin, begin + size);
}

/// A writer whose bound store carries, for each chunk of \p fixture's single
/// field, the bound the fixture's manifest records.  Every chunk of the
/// frozen archives landed in band at its bound, so a write of the fixture's
/// input compresses each chunk once, at that bound, without a search: the
/// comparison checks the write path, whatever bounds the tuner picks today.
inline archive::ArchiveWriter writer_at_bounds(archive::ArchiveWriteConfig config,
                                               const archive::ArchiveInfo& fixture) {
  const double target = config.engine.tuner.target_ratio;
  archive::ArchiveWriter writer(std::move(config));
  for (std::size_t i = 0; i < fixture.chunks.size(); ++i)
    writer.bound_store()->put(archive::chunk_field_key(archive::kDefaultFieldName, i), target,
                              fixture.chunks[i].error_bound);
  return writer;
}

}  // namespace fraz::testhelpers

#endif  // FRAZ_TESTS_ARCHIVE_FIXTURES_HPP
