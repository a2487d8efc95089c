// Trace sink: typed spans/instants/counter samples over the *simulated*
// timeline, exported as Chrome trace_event JSON (load in chrome://tracing
// or https://ui.perfetto.dev).
//
// Design (DESIGN.md §7):
//
//   * Records are 64-byte PODs in a fixed-capacity ring buffer: emitting
//     never allocates, and a long run keeps the most recent `capacity`
//     records (overwrites are counted in `dropped()` so truncation is
//     visible, never silent).  The constructor reserves the ring and emit
//     appends until it is full, then wraps, so a short run pays only for
//     the records it emits; the exporter walks the ring in place.
//   * Names and categories are `const char*` and must point to storage
//     that outlives the collector — in practice string literals.  This
//     keeps a record trivially copyable; the exporter never frees them.
//   * Timestamps are simulation seconds; the exporter scales to the
//     microseconds Chrome expects.  Per-server lifecycle spans are emitted
//     as async begin/end pairs (phases 'b'/'e') keyed by server id, which
//     Perfetto renders as one lane per server without nesting constraints.
//   * Gating: the runtime switch is the sink pointer itself — call sites
//     hold a TraceCollector* that is null when tracing is off, so the off
//     cost is one branch.  The compile switch is the CMake option
//     GC_TRACING (default ON); configuring with -DGC_TRACING=OFF defines
//     GC_TRACING_DISABLED, which turns the `trace_*` call-site helpers
//     below into empty inlines the optimizer deletes entirely.  Tracing is
//     observational either way: it never touches RNG streams or event
//     ordering, so SimResult is bit-identical with tracing on, off, or
//     compiled out (tests/test_obs_determinism.cpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace gc {

// Chrome trace_event phases we emit (the value is the "ph" character).
enum class TracePhase : char {
  kComplete = 'X',    // span with explicit duration
  kInstant = 'i',     // point event
  kCounter = 'C',     // numeric series sample
  kAsyncBegin = 'b',  // async span begin (keyed by id)
  kAsyncEnd = 'e',    // async span end
};

struct TraceRecord {
  double ts_s = 0.0;       // simulation time
  double dur_s = 0.0;      // kComplete only
  const char* cat = "";    // category (see obs::cat below)
  const char* name = "";
  TracePhase phase = TracePhase::kInstant;
  std::uint32_t tid = 0;   // Chrome "thread": lane within the trace
  std::uint32_t id = 0;    // async span key (kAsyncBegin/kAsyncEnd)
  // Up to two numeric arguments, rendered into "args".
  std::uint8_t nargs = 0;
  const char* arg_name[2] = {"", ""};
  double arg_value[2] = {0.0, 0.0};
};

struct TraceOptions {
  // Ring capacity in records (64 B each).  A fig8-style day keeps the most
  // recent ~4 MiB of history at the default.
  std::size_t capacity = 1u << 16;
};

class TraceCollector {
 public:
  explicit TraceCollector(TraceOptions options = {});

  // Hot-path emit: appends the record to the ring, or overwrites the oldest
  // record once the ring is full.
  void emit(const TraceRecord& record) noexcept;

  // Convenience constructors for the common shapes.
  void instant(double ts_s, const char* cat, const char* name, std::uint32_t tid = 0);
  void instant1(double ts_s, const char* cat, const char* name, const char* arg,
                double value, std::uint32_t tid = 0);
  void complete(double ts_s, double dur_s, const char* cat, const char* name,
                std::uint32_t tid = 0);
  void counter(double ts_s, const char* name, const char* series, double value);
  void async_begin(double ts_s, const char* cat, const char* name, std::uint32_t id);
  void async_end(double ts_s, const char* cat, const char* name, std::uint32_t id);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // Total records emitted, including overwritten ones.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  // Records lost to ring overwrite (emitted - size while saturated).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return emitted_ - static_cast<std::uint64_t>(ring_.size());
  }

  // Records in emission order, oldest first.
  [[nodiscard]] std::vector<TraceRecord> records() const;

  // Chrome trace_event JSON ({"traceEvents": [...], ...}); `write_*` throws
  // std::runtime_error on I/O failure.
  [[nodiscard]] std::string to_chrome_json() const;
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  // Ring index of the oldest record.
  [[nodiscard]] std::size_t oldest() const noexcept;

  std::size_t capacity_;
  std::vector<TraceRecord> ring_;  // grows to capacity_, then wraps
  std::size_t head_ = 0;           // next write position
  std::uint64_t emitted_ = 0;
};

// -- call-site helpers (compiled out under -DGC_TRACING=OFF) -----------------
//
// All instrumentation in sim/ and exp/ goes through these so a single
// compile flag removes every call site.  `sink` may be null (tracing off at
// runtime).

#if defined(GC_TRACING_DISABLED)
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

inline void trace_instant(TraceCollector* sink, double ts_s, const char* cat,
                          const char* name, std::uint32_t tid = 0) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->instant(ts_s, cat, name, tid);
  } else {
    (void)sink; (void)ts_s; (void)cat; (void)name; (void)tid;
  }
}

inline void trace_instant1(TraceCollector* sink, double ts_s, const char* cat,
                           const char* name, const char* arg, double value,
                           std::uint32_t tid = 0) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->instant1(ts_s, cat, name, arg, value, tid);
  } else {
    (void)sink; (void)ts_s; (void)cat; (void)name; (void)arg; (void)value; (void)tid;
  }
}

inline void trace_complete(TraceCollector* sink, double ts_s, double dur_s,
                           const char* cat, const char* name, std::uint32_t tid = 0) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->complete(ts_s, dur_s, cat, name, tid);
  } else {
    (void)sink; (void)ts_s; (void)dur_s; (void)cat; (void)name; (void)tid;
  }
}

inline void trace_counter(TraceCollector* sink, double ts_s, const char* name,
                          const char* series, double value) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->counter(ts_s, name, series, value);
  } else {
    (void)sink; (void)ts_s; (void)name; (void)series; (void)value;
  }
}

inline void trace_async_begin(TraceCollector* sink, double ts_s, const char* cat,
                              const char* name, std::uint32_t id) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->async_begin(ts_s, cat, name, id);
  } else {
    (void)sink; (void)ts_s; (void)cat; (void)name; (void)id;
  }
}

inline void trace_async_end(TraceCollector* sink, double ts_s, const char* cat,
                            const char* name, std::uint32_t id) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->async_end(ts_s, cat, name, id);
  } else {
    (void)sink; (void)ts_s; (void)cat; (void)name; (void)id;
  }
}

// Emitted record with a full numeric payload.
inline void trace_emit(TraceCollector* sink, const TraceRecord& record) {
  if constexpr (kTracingCompiledIn) {
    if (sink != nullptr) sink->emit(record);
  } else {
    (void)sink; (void)record;
  }
}

}  // namespace gc
