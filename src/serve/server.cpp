#include "serve/server.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <vector>

#include "ndarray/dtype.hpp"
#include "serve/protocol.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json_writer.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FRAZ_SERVE_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define FRAZ_SERVE_HAS_SOCKETS 0
#endif

namespace fraz::serve {

namespace {

std::string info_json(const ReaderPool& pool) {
  const archive::ArchiveInfo& info = pool.info();
  JsonWriter w;
  w.begin_object().field("format_version", info.version).key("fields").begin_array();
  for (const archive::FieldInfo& f : info.fields) {
    w.begin_object()
        .field("name", f.name)
        .field("dtype", std::string_view(dtype_name(f.dtype)))
        .key("shape")
        .begin_array();
    for (const std::size_t extent : f.shape) w.value(extent);
    w.end_array()
        .field("chunk_extent", f.chunk_extent)
        .field("chunk_count", f.chunk_count)
        .end_object();
  }
  w.end_array().end_object();
  return std::move(w).str();
}

std::string stats_json(const ReaderPool& pool, const ServeStats& session) {
  const ReaderPool::Stats ps = pool.stats();
  const ChunkCache::Stats cs = pool.cache()->stats();
  JsonWriter w;
  w.begin_object()
      .field("requests", session.requests)
      .field("errors", session.errors)
      .field("bytes_out", session.bytes_out)
      .key("pool")
      .begin_object()
      .field("requests", ps.requests)
      .field("cache_hits", ps.cache_hits)
      .field("wait_hits", ps.wait_hits)
      .field("decoded_chunks", ps.decoded_chunks)
      .field("prefetch_issued", ps.prefetch_issued)
      .end_object()
      .key("cache")
      .begin_object()
      .field("hits", cs.hits)
      .field("misses", cs.misses)
      .field("entries", cs.entries)
      .field("resident_bytes", cs.resident_bytes)
      .field("evictions", cs.evictions)
      .end_object()
      .end_object();
  return std::move(w).str();
}

telemetry::Counter& net_requests_counter() {
  static telemetry::Counter& c = telemetry::global().counter("serve.net.requests");
  return c;
}

telemetry::Counter& net_errors_counter() {
  static telemetry::Counter& c = telemetry::global().counter("serve.net.errors");
  return c;
}

telemetry::Counter& net_bytes_out_counter() {
  static telemetry::Counter& c = telemetry::global().counter("serve.net.bytes_out");
  return c;
}

/// Folds one connection's counters into the shared sink exactly once, on
/// scope exit.  Every way out of serve_connection — QUIT, EOF, transport
/// failure, exception — runs this destructor, so no exit path can drop a
/// session and none can double-count it; serve_tcp passes its shared sink
/// straight through instead of re-accumulating per thread.
class SessionScope {
public:
  explicit SessionScope(ServeStats* sink) noexcept : sink_(sink) {}
  ~SessionScope() {
    net_requests_counter().add(session.requests);
    net_errors_counter().add(session.errors);
    net_bytes_out_counter().add(session.bytes_out);
    if (!sink_) return;
    // One mutex for every concurrent connection of the process: the sink may
    // be shared across serve_tcp threads.
    static Mutex sink_mutex;
    LockGuard lock(sink_mutex);
    sink_->requests += session.requests;
    sink_->errors += session.errors;
    sink_->bytes_out += session.bytes_out;
  }

  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

  ServeStats session;

private:
  ServeStats* sink_;
};

/// Frame and send one decoded array: status line, then the raw bytes.
Status send_array(Transport& transport, const NdArray& array, ServeStats& session) {
  std::string head = "OK " + std::to_string(array.size_bytes()) + " " +
                     dtype_name(array.dtype());
  for (const std::size_t extent : array.shape()) head += " " + std::to_string(extent);
  Status s = transport.write_line(head);
  if (!s.ok()) return s;
  s = transport.write_bytes(array.data(), array.size_bytes());
  if (!s.ok()) return s;
  session.bytes_out += array.size_bytes();
  return transport.flush();
}

}  // namespace

// ---------------------------------------------------------------- transport

Status Transport::write_line(const std::string& line) noexcept {
  return guarded([&] {
    std::string framed = line;
    framed += '\n';
    return write_bytes(framed.data(), framed.size());
  });
}

bool StreamTransport::read_line(std::string& line) {
  return static_cast<bool>(std::getline(in_, line));
}

Status StreamTransport::write_bytes(const void* data, std::size_t size) noexcept {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out_) return Status::io_error("serve: write failed");
  return Status();
}

Status StreamTransport::flush() noexcept {
  out_.flush();
  if (!out_) return Status::io_error("serve: flush failed");
  return Status();
}

// --------------------------------------------------------------- connection

Status serve_connection(const std::shared_ptr<ReaderPool>& pool, Transport& transport,
                        ServeStats* stats) noexcept {
  return guarded([&] {
    ReaderHandle handle = pool->handle();
    SessionScope scope(stats);
    ServeStats& session = scope.session;
    std::string line;
    Status transport_status;

    while (transport.read_line(line)) {
      const Request request = parse_request(line);
      if (request.kind == RequestKind::kBlank) continue;  // keep-alive noise
      TELEM_SPAN("serve.request_us");
      ++session.requests;

      auto reply_error = [&](const std::string& message) {
        ++session.errors;
        Status s = transport.write_line("ERR " + message);
        if (s.ok()) s = transport.flush();
        return s;
      };

      if (request.kind == RequestKind::kQuit) {
        transport_status = transport.write_line("OK bye");
        if (transport_status.ok()) transport_status = transport.flush();
        break;
      }
      switch (request.kind) {
        case RequestKind::kPing:
          transport_status = transport.write_line("PONG");
          if (transport_status.ok()) transport_status = transport.flush();
          break;
        case RequestKind::kInfo:
          transport_status = transport.write_line("OK " + info_json(*pool));
          if (transport_status.ok()) transport_status = transport.flush();
          break;
        case RequestKind::kStats:
          transport_status =
              transport.write_line("OK " + stats_json(*pool, session));
          if (transport_status.ok()) transport_status = transport.flush();
          break;
        case RequestKind::kMetrics:
          // Registry snapshot as one JSON line.
          transport_status =
              transport.write_line("OK " + telemetry::global().to_json());
          if (transport_status.ok()) transport_status = transport.flush();
          break;
        case RequestKind::kMetricsProm: {
          // Prometheus text is multi-line, so frame it like a payload:
          // `OK <nbytes>` then the raw exposition bytes.
          const std::string text = telemetry::global().to_prometheus();
          transport_status =
              transport.write_line("OK " + std::to_string(text.size()));
          if (transport_status.ok())
            transport_status = transport.write_bytes(text.data(), text.size());
          if (transport_status.ok()) transport_status = transport.flush();
          session.bytes_out += text.size();
          break;
        }
        case RequestKind::kGet: {
          Result<NdArray> range =
              handle.read_range(request.field, request.first, request.count);
          transport_status = range.ok()
                                 ? send_array(transport, range.value(), session)
                                 : reply_error(range.status().to_string());
          break;
        }
        case RequestKind::kChunk: {
          Result<NdArray> chunk = handle.read_chunk(request.field, request.first);
          transport_status = chunk.ok()
                                 ? send_array(transport, chunk.value(), session)
                                 : reply_error(chunk.status().to_string());
          break;
        }
        case RequestKind::kBad:
          transport_status = reply_error(request.error);
          break;
        case RequestKind::kBlank:
        case RequestKind::kQuit:
          break;  // handled above
      }
      if (!transport_status.ok()) break;  // peer is gone; stop serving it
    }

    return transport_status;  // SessionScope folds session into *stats
  });
}

// ---------------------------------------------------------------------- tcp

#if FRAZ_SERVE_HAS_SOCKETS

namespace {

/// Transport over one accepted socket: buffered line reads, direct writes.
class FdTransport final : public Transport {
public:
  explicit FdTransport(int fd) noexcept : fd_(fd) {}
  ~FdTransport() override { ::close(fd_); }

  bool read_line(std::string& line) override {
    line.clear();
    while (true) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      // Bound the line buffer against a peer that streams bytes without a
      // newline: past the protocol cap the content can only ever produce
      // "request line too long", so keep a cap-exceeding prefix (enough for
      // the parser to reject it) and discard the rest until the newline.
      if (buffer_.size() > kMaxRequestLine) buffer_.resize(kMaxRequestLine + 1);
      char chunk[4096];
      const ::ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      if (buffer_.size() > kMaxRequestLine) {
        const void* found =
            std::memchr(chunk, '\n', static_cast<std::size_t>(n));
        if (found == nullptr) continue;  // still discarding
        const std::size_t after =
            static_cast<std::size_t>(static_cast<const char*>(found) - chunk) + 1;
        line = buffer_;  // oversized marker prefix; parser rejects it
        buffer_.assign(chunk + after, static_cast<std::size_t>(n) - after);
        return true;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  Status write_bytes(const void* data, std::size_t size) noexcept override {
    const char* cursor = static_cast<const char*>(data);
    std::size_t left = size;
    while (left > 0) {
      const ::ssize_t n = ::write(fd_, cursor, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::io_error("serve: socket write failed: " +
                                std::string(std::strerror(errno)));
      }
      cursor += n;
      left -= static_cast<std::size_t>(n);
    }
    return Status();
  }

  Status flush() noexcept override { return Status(); }  // unbuffered writes

private:
  int fd_;
  std::string buffer_;
};

}  // namespace

Status serve_tcp(const std::shared_ptr<ReaderPool>& pool, std::uint16_t port,
                 ServeStats* stats,
                 const std::function<void(std::uint16_t)>& on_listening) noexcept {
  return guarded([&]() -> Status {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0)
      return Status::io_error("serve: cannot create socket: " +
                              std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0 ||
        ::listen(listener, 16) != 0) {
      const Status s = Status::io_error("serve: cannot listen on port " +
                                        std::to_string(port) + ": " +
                                        std::string(std::strerror(errno)));
      ::close(listener);
      return s;
    }
    socklen_t address_size = sizeof address;
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&address),
                      &address_size) == 0 &&
        on_listening)
      on_listening(ntohs(address.sin_port));

    std::vector<std::thread> connections;
    while (true) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listener torn down (signal/shutdown): stop accepting
      }
      // serve_connection's SessionScope accumulates into the shared *stats
      // under its own lock — one accumulation site for every transport.
      connections.emplace_back([pool, fd, stats] {
        FdTransport transport(fd);
        serve_connection(pool, transport, stats);
      });
    }
    ::close(listener);
    for (std::thread& connection : connections) connection.join();
    return Status();
  });
}

#else  // !FRAZ_SERVE_HAS_SOCKETS

Status serve_tcp(const std::shared_ptr<ReaderPool>&, std::uint16_t, ServeStats*,
                 const std::function<void(std::uint16_t)>&) noexcept {
  return Status::unsupported("serve: TCP serving requires POSIX sockets");
}

#endif

}  // namespace fraz::serve
