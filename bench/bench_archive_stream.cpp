/// Push-based ingestion sessions — throughput and input-memory residency of
/// the streamed write data plane against the whole-array compatibility path.
///
/// What this measures (no paper figure — the session API is the in-situ
/// deployment shape the error-bounded-compression literature calls for):
///
///  - pack throughput of write(ArrayView) (whole field handed over at once)
///    against a FieldSession fed one plane at a time, at several worker
///    counts, asserting the two paths' bytes are identical;
///  - the writer's peak raw *input* residency on the push path — the
///    streamed memory model says it never exceeds (workers + 2) chunk rows,
///    however large the field;
///  - a two-field v3 build streamed back-to-back, with per-field ratios.
///
/// Expected shape: plane-by-plane packs within a few percent of whole-array
/// packs (staging is one memcpy per plane next to chunk compression), input
/// residency pinned at (workers + 2) chunk rows — a small fraction of the
/// field — and byte-identical archives.  Output ends with one
/// machine-readable JSON line.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "bench_common.hpp"

namespace {

using namespace fraz;

archive::ArchiveWriteConfig make_config(const Cli& cli, unsigned threads) {
  archive::ArchiveWriteConfig config;
  config.engine.compressor = cli.get_string("compressor");
  config.engine.tuner.target_ratio = cli.get_double("target");
  config.threads = threads;
  return config;
}

/// Push every plane of \p field through \p session individually.
bool push_planes(archive::FieldSession& session, const NdArray& field) {
  const std::size_t n0 = field.shape()[0];
  const std::size_t plane_bytes = field.size_bytes() / n0;
  Shape plane_shape = field.shape();
  plane_shape[0] = 1;
  const auto* base = static_cast<const std::uint8_t*>(field.data());
  for (std::size_t p = 0; p < n0; ++p) {
    const ArrayView plane(base + p * plane_bytes, field.dtype(), plane_shape);
    if (!session.push(plane).ok()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("archive ingestion sessions: plane-by-plane push vs whole-array write");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard|truncate");
  cli.add_double("target", 10.0, "target aggregate compression ratio");
  cli.add_int("steps", 3, "timed packs per path (after 1 warm-up)");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("archive-stream",
                "push-based field sessions vs whole-array writes",
                "byte-identical archives; input residency <= (workers + 2) chunk "
                "rows; push within a few %% of write");

  const auto ds =
      data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const NdArray temp = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  const NdArray press = data::generate_field(data::field_by_name(ds, "Uf"), 0);
  const int steps = static_cast<int>(cli.get_int("steps"));
  const double raw_mb = static_cast<double>(temp.size_bytes()) / 1e6;

  std::printf("%-8s %-14s %-10s %-10s %-16s %s\n", "workers", "path", "MB/s", "ratio",
              "staged/raw", "identical");
  double write_mbps = 0, push_mbps = 0, staged_fraction = 0;
  bool identical = true;
  for (const unsigned threads : {1u, 2u, 4u}) {
    archive::ArchiveWriter whole_writer(make_config(cli, threads));
    Buffer whole_bytes;
    double whole_ratio = 0;
    {
      Timer timer;
      for (int s = 0; s <= steps; ++s) {
        auto written = whole_writer.write(temp.view(), whole_bytes);
        if (!written.ok()) return 1;
        if (s == 0) timer = Timer();  // warm-up excluded
        whole_ratio = written.value().achieved_ratio;
      }
      write_mbps = raw_mb * steps / timer.seconds();
    }

    archive::ArchiveWriter push_writer(make_config(cli, threads));
    Buffer push_bytes;
    std::size_t peak_staged = 0;
    {
      Timer timer;
      for (int s = 0; s <= steps; ++s) {
        if (!push_writer.begin(push_bytes).ok()) return 1;
        archive::FieldDesc desc;
        desc.dtype = temp.dtype();
        desc.shape = temp.shape();
        auto session = push_writer.open_field(archive::kDefaultFieldName, desc);
        if (!session.ok() || !push_planes(session.value(), temp)) return 1;
        if (!session.value().close().ok()) return 1;
        auto finished = push_writer.finish();
        if (!finished.ok()) return 1;
        if (s == 0) timer = Timer();
        peak_staged = finished.value().peak_staged_bytes;
      }
      push_mbps = raw_mb * steps / timer.seconds();
    }

    const bool same = whole_bytes.size() == push_bytes.size() &&
                      std::memcmp(whole_bytes.data(), push_bytes.data(),
                                  whole_bytes.size()) == 0;
    identical = identical && same;
    staged_fraction =
        static_cast<double>(peak_staged) / static_cast<double>(temp.size_bytes());
    std::printf("%-8u %-14s %-10.1f %-10.2f %-16s %s\n", threads, "write", write_mbps,
                whole_ratio, "-", "-");
    std::printf("%-8u %-14s %-10.1f %-10.2f %-16.3f %s\n", threads, "push", push_mbps,
                whole_ratio, staged_fraction, same ? "yes" : "NO");
  }

  // Two-field v3 build, both fields streamed plane by plane.
  archive::ArchiveWriter multi_writer(make_config(cli, 4));
  Buffer multi_bytes;
  double temp_ratio = 0, press_ratio = 0;
  if (!multi_writer.begin(multi_bytes).ok()) return 1;
  for (const NdArray* field : {&temp, &press}) {
    archive::FieldDesc desc;
    desc.dtype = field->dtype();
    desc.shape = field->shape();
    auto session = multi_writer.open_field(field == &temp ? "TCf" : "Uf", desc);
    if (!session.ok() || !push_planes(session.value(), *field)) return 1;
    auto report = session.value().close();
    if (!report.ok()) return 1;
    (field == &temp ? temp_ratio : press_ratio) = report.value().payload_ratio;
  }
  auto multi = multi_writer.finish();
  if (!multi.ok()) return 1;
  std::printf("\nv3 multi-field: %zu fields, %zu -> %zu bytes (aggregate %.2f; "
              "TCf %.2f, Uf %.2f)\n",
              multi.value().fields.size(), multi.value().raw_bytes,
              multi.value().archive_bytes, multi.value().achieved_ratio, temp_ratio,
              press_ratio);

  std::printf("\n{\"bench\":\"archive_stream\",\"write_mbps\":%.2f,\"push_mbps\":%.2f,"
              "\"staged_fraction\":%.4f,\"identical\":%s,"
              "\"multi_field_ratio\":%.3f}\n",
              write_mbps, push_mbps, staged_fraction, identical ? "true" : "false",
              multi.value().achieved_ratio);
  return identical ? 0 : 1;
}
