#include "traced_compressor.hpp"

#include <memory>
#include <utility>

#include "pressio/registry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using fraz::pressio::CompressorPtr;

class TracedCompressor final : public fraz::pressio::Compressor {
public:
  explicit TracedCompressor(CompressorPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  fraz::pressio::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  fraz::pressio::Options get_options() const override { return inner_->get_options(); }
  void set_options(const fraz::pressio::Options& options) override {
    inner_->set_options(options);
  }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }

  fraz::Status compress_into(const fraz::ArrayView& input,
                             fraz::Buffer& out) const noexcept override {
    ScopedSpan span(kCompressSpan);
    span.set_bytes(input.size_bytes());
    return inner_->compress_into(input, out);
  }

  fraz::Status decompress_into(const std::uint8_t* data, std::size_t size,
                               fraz::NdArray& out) const noexcept override {
    ScopedSpan span(kDecompressSpan);
    const fraz::Status status = inner_->decompress_into(data, size, out);
    span.set_bytes(out.size_bytes());
    return status;
  }

  CompressorPtr clone() const override {
    return std::make_unique<TracedCompressor>(inner_->clone());
  }

private:
  CompressorPtr inner_;
};

}  // namespace

std::string traced_backend(const std::string& backend) { return "traced." + backend; }

void register_traced_backends() {
  auto& registry = fraz::pressio::registry();
  for (const char* backend : {"sz", "szx", "zfp"}) {
    const std::string name = traced_backend(backend);
    if (registry.contains(name)) continue;
    registry.register_factory(name, [backend] {
      return CompressorPtr(
          std::make_unique<TracedCompressor>(fraz::pressio::registry().create(backend)));
    });
  }
}

}  // namespace perfbench
