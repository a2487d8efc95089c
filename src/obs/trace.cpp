#include "obs/trace.h"

#include <cstdio>
#include <stdexcept>

#include "util/format.h"

namespace gc {
namespace {

void append_escaped(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += *s; break;
    }
  }
  out += '"';
}

}  // namespace

TraceCollector::TraceCollector(TraceOptions options) : capacity_(options.capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("TraceCollector: capacity must be > 0");
  }
  // Reserved, not resized: the ring fills lazily, so a short run never
  // touches (or zero-fills) the pages it does not use.
  ring_.reserve(capacity_);
}

void TraceCollector::emit(const TraceRecord& record) noexcept {
  if (ring_.size() < capacity_) {
    ring_.push_back(record);  // within the reserved capacity: no allocation
  } else {
    ring_[head_] = record;
  }
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++emitted_;
}

void TraceCollector::instant(double ts_s, const char* cat, const char* name,
                             std::uint32_t tid) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.cat = cat;
  r.name = name;
  r.phase = TracePhase::kInstant;
  r.tid = tid;
  emit(r);
}

void TraceCollector::instant1(double ts_s, const char* cat, const char* name,
                              const char* arg, double value, std::uint32_t tid) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.cat = cat;
  r.name = name;
  r.phase = TracePhase::kInstant;
  r.tid = tid;
  r.nargs = 1;
  r.arg_name[0] = arg;
  r.arg_value[0] = value;
  emit(r);
}

void TraceCollector::complete(double ts_s, double dur_s, const char* cat,
                              const char* name, std::uint32_t tid) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.dur_s = dur_s;
  r.cat = cat;
  r.name = name;
  r.phase = TracePhase::kComplete;
  r.tid = tid;
  emit(r);
}

void TraceCollector::counter(double ts_s, const char* name, const char* series,
                             double value) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.cat = "counter";
  r.name = name;
  r.phase = TracePhase::kCounter;
  r.nargs = 1;
  r.arg_name[0] = series;
  r.arg_value[0] = value;
  emit(r);
}

void TraceCollector::async_begin(double ts_s, const char* cat, const char* name,
                                 std::uint32_t id) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.cat = cat;
  r.name = name;
  r.phase = TracePhase::kAsyncBegin;
  r.id = id;
  emit(r);
}

void TraceCollector::async_end(double ts_s, const char* cat, const char* name,
                               std::uint32_t id) {
  TraceRecord r;
  r.ts_s = ts_s;
  r.cat = cat;
  r.name = name;
  r.phase = TracePhase::kAsyncEnd;
  r.id = id;
  emit(r);
}

std::size_t TraceCollector::oldest() const noexcept {
  // head_ is the next write position, i.e. the oldest record once full.
  return ring_.size() == capacity_ ? head_ : 0;
}

std::vector<TraceRecord> TraceCollector::records() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  const std::size_t start = oldest();
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(start), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(start));
  return out;
}

std::string TraceCollector::to_chrome_json() const {
  // Chrome's JSON object format: displayTimeUnit/metadata are optional but
  // make Perfetto label the axis in milliseconds of simulated time.
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  out.reserve(out.size() + 128 * ring_.size() + 8);  // a record renders to ~110 bytes
  // Walk the ring in place, oldest first: [start, size) then [0, start).
  const std::size_t start = oldest();
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ",\n";
    const TraceRecord& r = ring_[start + i < n ? start + i : start + i - n];
    out += "{\"pid\": 1, \"tid\": ";
    append_u64(out, r.tid);
    out += ", \"ph\": \"";
    out += static_cast<char>(r.phase);
    out += "\", \"ts\": ";
    append_g(out, r.ts_s * 1e6);  // simulation seconds -> microseconds
    if (r.phase == TracePhase::kComplete) {
      out += ", \"dur\": ";
      append_g(out, r.dur_s * 1e6);
    }
    if (r.phase == TracePhase::kInstant) {
      out += ", \"s\": \"t\"";  // instant scope: thread
    }
    if (r.phase == TracePhase::kAsyncBegin || r.phase == TracePhase::kAsyncEnd) {
      out += ", \"id\": ";
      append_u64(out, r.id);
    }
    out += ", \"cat\": ";
    append_escaped(out, r.cat);
    out += ", \"name\": ";
    append_escaped(out, r.name);
    if (r.phase == TracePhase::kCounter) {
      // Counter events chart args series; name is the chart title.
      out += ", \"args\": {";
      append_escaped(out, r.arg_name[0]);
      out += ": ";
      append_g(out, r.arg_value[0]);
      out += '}';
    } else if (r.nargs > 0) {
      out += ", \"args\": {";
      for (std::uint8_t a = 0; a < r.nargs && a < 2; ++a) {
        if (a > 0) out += ", ";
        append_escaped(out, r.arg_name[a]);
        out += ": ";
        append_g(out, r.arg_value[a]);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

void TraceCollector::write_chrome_json(const std::filesystem::path& path) const {
  const std::string text = to_chrome_json();
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("TraceCollector: cannot write " + path.string());
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    throw std::runtime_error("TraceCollector: short write to " + path.string());
  }
}

}  // namespace gc
