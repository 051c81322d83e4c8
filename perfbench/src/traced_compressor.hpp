#ifndef PERFBENCH_TRACED_COMPRESSOR_HPP
#define PERFBENCH_TRACED_COMPRESSOR_HPP

/// \file traced_compressor.hpp
/// Compressor-layer spans without touching the program: a forwarding
/// pressio::Compressor plugin that wraps a real backend and records a span
/// around every compress_into / decompress_into.  It forwards name, options,
/// capabilities, bound and clone, so probe-cache fingerprints, tuned bounds
/// and payload bytes are those of the wrapped backend.  Registered under
/// "traced.<backend>"; an archive packed through it records that registry
/// name, so ReaderPool decodes of that archive are traced as well.

#include <string>

namespace perfbench {

/// Span names the wrapper records.
inline constexpr const char* kCompressSpan = "compressors.compress";
inline constexpr const char* kDecompressSpan = "compressors.decompress";

/// Registry name of the traced wrapper around \p backend.
std::string traced_backend(const std::string& backend);

/// Register "traced.sz", "traced.szx" and "traced.zfp" (idempotent).
void register_traced_backends();

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_COMPRESSOR_HPP
