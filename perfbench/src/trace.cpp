#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench::tracer {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t parent;
  const char* name;
  double start_us;
};

thread_local std::vector<OpenSpan> t_open;
thread_local std::uint32_t t_index = 0;

/// Microseconds since the recorder's epoch.
double now_us() noexcept {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch).count();
}

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t thread_index() noexcept {
  if (t_index == 0) t_index = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return t_index;
}

std::uint64_t begin(const char* name) {
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back().id;
  t_open.push_back({id, parent, name, now_us()});
  return id;
}

void end(std::uint64_t id, std::uint64_t bytes) {
  const double end_us = now_us();
  if (t_open.empty() || t_open.back().id != id) return;  // unbalanced: drop
  const OpenSpan open = t_open.back();
  t_open.pop_back();
  Span span;
  span.name = open.name;
  span.start_us = open.start_us;
  span.end_us = end_us;
  span.thread = thread_index();
  span.id = id;
  span.parent = open.parent;
  span.bytes = bytes;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span);
}

std::size_t mark() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans.size();
}

std::vector<Span> spans_since(std::size_t mark) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (mark >= g_spans.size()) return {};
  return std::vector<Span>(g_spans.begin() + static_cast<std::ptrdiff_t>(mark), g_spans.end());
}

bool write_chrome(const std::string& path) {
  std::vector<Span> spans = spans_since(0);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"bytes\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_us, s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fprintf(file, "\n]}\n");
  const bool ok = std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench::tracer
