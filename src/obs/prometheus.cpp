#include "obs/prometheus.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/format.h"

namespace gc {

std::string prometheus_name(std::string_view name) {
  std::string out = "gc_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string to_prometheus_text(
    const CountersSnapshot& snapshot,
    const std::vector<PrometheusHistogram>& histograms) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prometheus_name(name) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " ";
    append_u64(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prometheus_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " ";
    append_g(out, value);
    out += '\n';
  }
  for (const auto& [name, hist] : histograms) {
    if (hist == nullptr) continue;
    const std::string metric = prometheus_name(name);
    out += "# TYPE " + metric + " histogram\n";
    // Cumulative `le` series over the non-empty buckets; mass below the
    // first boundary (the underflow counter) is inside the first bucket's
    // cumulative count by construction.
    std::uint64_t cumulative = hist->underflow();
    for (const auto& bucket : hist->nonzero_buckets()) {
      cumulative += bucket.count;
      out += metric;
      out += "_bucket{le=\"";
      append_g(out, bucket.upper);
      out += "\"} ";
      append_u64(out, cumulative);
      out += '\n';
    }
    out += metric + "_bucket{le=\"+Inf\"} ";
    append_u64(out, hist->count());
    out += '\n';
    out += metric + "_sum ";
    append_g(out, hist->sum());
    out += '\n';
    out += metric + "_count ";
    append_u64(out, hist->count());
    out += '\n';
  }
  return out;
}

void serve_scrape(int fd, std::string_view body) {
  // Consume the request head so well-behaved HTTP clients see their send
  // acknowledged before the response lands; a client that writes nothing
  // and just reads (netcat, the smoke test) works too because an empty
  // first chunk / EOF falls straight through to the response.
  std::string head;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("scrape: recv failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) break;
    head.append(chunk, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      break;
    }
    if (head.size() > 64 * 1024) break;  // oversized head: answer anyway
  }
  std::string out = "HTTP/1.0 200 OK\r\n";
  out += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out.append(body);
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("scrape: send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace gc
