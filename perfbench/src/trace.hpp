#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// In-memory span recorder of the traced benchmark run.
///
/// Spans are recorded only from the benchmark's own files, around calls into
/// the layers' public functions (and, through TracedCompressor, around every
/// backend compress/decompress).  Each span keeps its name, start, end,
/// thread and parent (the innermost open span on the same thread); spans stay
/// in memory until write_chrome() dumps them as Chrome trace-event JSON.
/// While the recorder is off a ScopedSpan costs one relaxed atomic load.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string
  double start_us = 0;       ///< since the recorder's epoch
  double end_us = 0;
  std::uint32_t thread = 0;  ///< small per-thread index; the main thread is 1
  std::uint64_t id = 0;      ///< > 0
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  std::uint64_t bytes = 0;   ///< uncompressed bytes the call handled (0 = n/a)

  double seconds() const noexcept { return (end_us - start_us) * 1e-6; }
};

namespace tracer {

/// Turn recording on or off (process-wide).
void enable(bool on) noexcept;
bool enabled() noexcept;

/// Index of this thread in recorded spans (assigned on first use).
std::uint32_t thread_index() noexcept;

/// Open a span on this thread; returns its id.
std::uint64_t begin(const char* name);
/// Close the innermost open span of this thread (must be \p id).
void end(std::uint64_t id, std::uint64_t bytes);

/// Number of spans recorded so far (a position for spans_since).
std::size_t mark();
/// Copy of every span closed after \p mark.
std::vector<Span> spans_since(std::size_t mark);

/// Write every recorded span as Chrome trace-event JSON ("X" events, one
/// per span, parent and id in args).  Returns false on an I/O failure.
bool write_chrome(const std::string& path);

}  // namespace tracer

/// RAII span: records when the recorder is on, does nothing otherwise.
class ScopedSpan {
public:
  explicit ScopedSpan(const char* name)
      : id_(tracer::enabled() ? tracer::begin(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer::end(id_, bytes_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

private:
  std::uint64_t id_;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
