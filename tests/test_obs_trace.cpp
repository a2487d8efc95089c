// TraceCollector: ring-buffer semantics and the Chrome trace_event JSON
// export (the schema shape chrome://tracing / Perfetto requires).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace gc {
namespace {

TEST(TraceCollector, RecordsInEmissionOrder) {
  TraceCollector trace;
  trace.instant(1.0, "cat", "a");
  trace.complete(2.0, 0.5, "cat", "b");
  trace.counter(3.0, "serving", "servers", 8.0);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_STREQ(records[0].name, "a");
  EXPECT_EQ(records[1].phase, TracePhase::kComplete);
  EXPECT_DOUBLE_EQ(records[1].dur_s, 0.5);
  EXPECT_EQ(records[2].phase, TracePhase::kCounter);
  EXPECT_EQ(trace.emitted(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestAndCountsDrops) {
  TraceOptions opts;
  opts.capacity = 4;
  TraceCollector trace(opts);
  for (int i = 0; i < 10; ++i) {
    trace.instant(static_cast<double>(i), "cat", i % 2 == 0 ? "even" : "odd");
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.emitted(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first: timestamps 6, 7, 8, 9 survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(i)].ts_s, 6.0 + i);
  }
}

// The ring fills lazily, but its capacity is the configured one from the
// start.
TEST(TraceCollector, CapacityIsTheConfiguredValueBeforeAnyEmit) {
  TraceOptions opts;
  opts.capacity = 1000;
  const TraceCollector trace(opts);
  EXPECT_EQ(trace.capacity(), 1000u);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(TraceCollector().capacity(), TraceOptions{}.capacity);
}

// Emits `n` instants with timestamps first, first + 1, ... and, every third
// record, a counter sample, so the rendered text varies per record.
void emit_series(TraceCollector& trace, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    if (i % 3 == 0) {
      trace.counter(static_cast<double>(i), "serving", "servers", 0.5 * i);
    } else {
      trace.instant(static_cast<double>(i), "cat", "tick", static_cast<std::uint32_t>(i));
    }
  }
}

TEST(TraceCollector, WrapsAfterCapacityPlusKEmits) {
  constexpr int kCapacity = 8;
  constexpr int kExtra = 5;
  TraceOptions opts;
  opts.capacity = kCapacity;
  TraceCollector trace(opts);
  emit_series(trace, 0, kCapacity + kExtra);
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(kCapacity));
  EXPECT_EQ(trace.capacity(), static_cast<std::size_t>(kCapacity));
  EXPECT_EQ(trace.emitted(), static_cast<std::uint64_t>(kCapacity + kExtra));
  EXPECT_EQ(trace.dropped(), static_cast<std::uint64_t>(kExtra));
  const auto records = trace.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kCapacity));
  for (int i = 0; i < kCapacity; ++i) {
    EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(i)].ts_s, kExtra + i);
  }
}

// The exporter walks the ring in place; its text must equal the text of the
// oldest-first records() re-emitted into a ring that holds them exactly.
TEST(TraceCollector, WrappedChromeJsonEqualsTheRecordsRendering) {
  TraceOptions opts;
  opts.capacity = 7;
  TraceCollector trace(opts);
  emit_series(trace, 0, 7 * 3 + 4);
  ASSERT_GT(trace.dropped(), 0u);
  const auto records = trace.records();
  TraceCollector unwrapped(opts);
  for (const TraceRecord& r : records) unwrapped.emit(r);
  ASSERT_EQ(unwrapped.dropped(), 0u);
  EXPECT_EQ(trace.to_chrome_json(), unwrapped.to_chrome_json());
  // And the oldest survivor comes first in the text.
  const std::string json = trace.to_chrome_json();
  EXPECT_LT(json.find("\"ts\": 18000000,"), json.find("\"ts\": 24000000,"));
}

// Chrome trace_event JSON shape: top-level "traceEvents" array; every event
// has ph/ts/pid/tid; 'X' carries "dur", 'i' carries "s", 'b'/'e' carry "id".
// Timestamps are microseconds (sim seconds x 1e6).
TEST(TraceCollector, ChromeJsonShape) {
  TraceCollector trace;
  trace.complete(1.0, 0.25, "control", "short-period", /*tid=*/1);
  trace.instant(2.0, "admission", "shed");
  trace.counter(3.0, "serving", "servers", 12.0);
  trace.async_begin(4.0, "lifecycle", "boot", /*id=*/7);
  trace.async_end(5.0, "lifecycle", "boot", /*id=*/7);
  const std::string json = trace.to_chrome_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Complete span: phase X, microsecond timestamp and duration.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250000"), std::string::npos);
  // Instant: phase i with thread scope.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  // Counter: phase C with the series in args.
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"servers\""), std::string::npos);
  // Async pair: phases b/e keyed by id.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
  // Every event sits in one process.
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

TEST(TraceCollector, ChromeJsonEscapesNothingUnexpected) {
  // Names are string literals by contract; the exporter must still produce
  // valid JSON for an empty collector.
  TraceCollector trace;
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(json.find("ph"), std::string::npos);
}

TEST(TraceHelpers, NullSinkIsSafe) {
  trace_instant(nullptr, 1.0, "cat", "name");
  trace_complete(nullptr, 1.0, 0.5, "cat", "name");
  trace_counter(nullptr, 1.0, "name", "series", 2.0);
  trace_async_begin(nullptr, 1.0, "cat", "name", 0);
  trace_async_end(nullptr, 1.0, "cat", "name", 0);
  TraceRecord record;
  trace_emit(nullptr, record);
  SUCCEED();
}

TEST(TraceHelpers, SinkReceivesWhenCompiledIn) {
  TraceCollector trace;
  trace_instant(&trace, 1.0, "cat", "name");
  if constexpr (kTracingCompiledIn) {
    EXPECT_EQ(trace.emitted(), 1u);
  } else {
    EXPECT_EQ(trace.emitted(), 0u);
  }
}

}  // namespace
}  // namespace gc
