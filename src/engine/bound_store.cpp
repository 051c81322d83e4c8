#include "engine/bound_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"

namespace fraz {

namespace {

constexpr std::uint32_t kBoundStoreMagic = 0x427a5246u;  // "FRzB" little-endian
constexpr std::uint8_t kBoundStoreVersion = 1;

}  // namespace

double BoundStore::get(const std::string& field, double target_ratio) const noexcept {
  return carried(field, target_ratio).bound;
}

CarriedBound BoundStore::carried(const std::string& field, double target_ratio) const noexcept {
  LockGuard lock(mutex_);
  const auto it = bounds_.find(Key{field, target_ratio});
  return it != bounds_.end() ? it->second : CarriedBound{};
}

void BoundStore::put(const std::string& field, double target_ratio, double bound,
                     bool above_band) {
  if (!(bound > 0)) return;
  LockGuard lock(mutex_);
  bounds_[Key{field, target_ratio}] = CarriedBound{bound, above_band};
}

void BoundStore::erase(const std::string& field, double target_ratio) noexcept {
  LockGuard lock(mutex_);
  bounds_.erase(Key{field, target_ratio});
}

void BoundStore::clear() noexcept {
  LockGuard lock(mutex_);
  bounds_.clear();
}

std::size_t BoundStore::size() const noexcept {
  LockGuard lock(mutex_);
  return bounds_.size();
}

void BoundStore::serialize(Buffer& out) const {
  LockGuard lock(mutex_);
  out.clear();
  put_u32(out, kBoundStoreMagic);
  out.push_back(kBoundStoreVersion);
  std::size_t in_band = 0;
  for (const auto& entry : bounds_) in_band += !entry.second.above_band;
  put_varint(out, in_band);
  for (const auto& [key, entry] : bounds_) {
    if (entry.above_band) continue;
    put_varint(out, key.first.size());
    out.append(key.first.data(), key.first.size());
    put_f64(out, key.second);
    put_f64(out, entry.bound);
  }
  put_u32(out, crc32(out.data(), out.size()));
}

Status BoundStore::deserialize(const std::uint8_t* data, std::size_t size) noexcept {
  return guarded([&] {
    // Parse into a scratch map first: a corrupt block must never leave the
    // store half-replaced.  Minimum block: magic + version + varint(0) + CRC
    // — an empty store is a valid checkpoint.
    ByteReader in(data, size, "bound store");
    if (size < 10) in.fail("block too small");
    if (in.u32() != kBoundStoreMagic) in.fail("bad magic");
    if (crc32(data, size - 4) != in.trailer(4).u32()) in.fail("checksum mismatch");
    if (in.u8() != kBoundStoreVersion) in.fail("unsupported version");
    const std::uint64_t count = in.varint();
    std::map<Key, CarriedBound> parsed;
    for (std::uint64_t i = 0; i < count; ++i) {
      // No arbitrary length cap: put() accepts any field key, so load()
      // must accept whatever save() wrote — the CRC plus the reader's
      // bounds check are what guard against a malformed block.
      const std::uint64_t name_size = in.varint();
      std::string field(reinterpret_cast<const char*>(in.take(name_size, "bad field name")),
                        static_cast<std::size_t>(name_size));
      const double target = in.f64();
      const double bound = in.f64();
      if (!(bound > 0)) in.fail("non-positive bound");
      parsed[Key{std::move(field), target}] = CarriedBound{bound, false};
    }
    in.expect_end("trailing bytes");
    LockGuard lock(mutex_);
    bounds_ = std::move(parsed);
  });
}

Status BoundStore::save(const std::string& path) const noexcept {
  return guarded([&] {
    Buffer block;
    serialize(block);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (!file)
      throw IoError("bound store: cannot open '" + path + "': " + errno_detail(errno));
    const bool wrote =
        block.size() == 0 || std::fwrite(block.data(), 1, block.size(), file) == block.size();
    const int write_errno = wrote ? 0 : errno;
    const bool closed = std::fclose(file) == 0;
    const int close_errno = closed ? 0 : errno;
    if (wrote && closed) return;
    std::remove(path.c_str());
    throw IoError("bound store: cannot write '" + path +
                  "': " + errno_detail(wrote ? close_errno : write_errno));
  });
}

Status BoundStore::load(const std::string& path) noexcept {
  std::vector<std::uint8_t> bytes;
  const Status read = guarded([&] {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (!file)
      throw IoError("bound store: cannot open '" + path + "': " + errno_detail(errno));
    std::uint8_t chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0)
      bytes.insert(bytes.end(), chunk, chunk + got);
    const bool read_ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!read_ok) throw IoError("bound store: cannot read '" + path + "'");
  });
  if (!read.ok()) return read;
  return deserialize(bytes.data(), bytes.size());
}

}  // namespace fraz
