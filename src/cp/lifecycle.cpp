#include "cp/lifecycle.h"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/trace.h"
#include "util/format.h"

namespace gc {
namespace {

const char* span_name(CommandKind kind) noexcept {
  return kind == CommandKind::kTarget ? "target" : "speed";
}

std::uint32_t span_id(const CommandLifecycle& rec) noexcept {
  return static_cast<std::uint32_t>(rec.id());
}

}  // namespace

const char* to_string(FrameClass fc) noexcept {
  switch (fc) {
    case FrameClass::kTelemetry: return "telemetry";
    case FrameClass::kTick: return "tick";
    case FrameClass::kCommand: return "command";
    case FrameClass::kAck: return "ack";
  }
  return "?";
}

const char* to_string(DropCause cause) noexcept {
  switch (cause) {
    case DropCause::kChannel: return "channel";
    case DropCause::kChaosDrop: return "chaos_drop";
    case DropCause::kChaosCorrupt: return "chaos_corrupt";
    case DropCause::kChaosTruncate: return "chaos_truncate";
    case DropCause::kWireCrc: return "wire_crc";
  }
  return "?";
}

const char* to_string(CommandLifecycle::State state) noexcept {
  switch (state) {
    case CommandLifecycle::State::kInFlight: return "in-flight";
    case CommandLifecycle::State::kCompleted: return "completed";
    case CommandLifecycle::State::kSuperseded: return "superseded";
    case CommandLifecycle::State::kReconciled: return "reconciled";
  }
  return "?";
}

std::uint64_t DropAttribution::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& row : cells_) {
    for (const std::uint64_t cell : row) sum += cell;
  }
  return sum;
}

void DropAttribution::counters_into(CountersSnapshot& snap) const {
  for (int fc = 0; fc < kNumFrameClasses; ++fc) {
    for (int cause = 0; cause < kNumDropCauses; ++cause) {
      if (cells_[fc][cause] == 0) continue;
      snap.add_counter(std::string("cp.drop.") +
                           to_string(static_cast<FrameClass>(fc)) + "." +
                           to_string(static_cast<DropCause>(cause)),
                       cells_[fc][cause]);
    }
  }
  snap.add_counter("cp.drop.total", total());
}

void LifecycleTracker::end_span(double now, const CommandLifecycle& rec) {
  trace_async_end(trace_, now, "cp.lifecycle", span_name(rec.kind), span_id(rec));
}

void LifecycleTracker::close(LaneMap& lane, LaneMap::iterator it) {
  if (done_.size() < max_records_) {
    done_.push_back(it->second);
  } else {
    ++evicted_;
  }
  lane.erase(it);
}

void LifecycleTracker::maybe_complete(LaneMap& lane, LaneMap::iterator it,
                                      double now) {
  CommandLifecycle& rec = it->second;
  if (rec.state != CommandLifecycle::State::kInFlight) return;
  if (!expect_acks_ && !expect_applies_) return;  // nothing ever confirms
  if (expect_acks_ && rec.acked_s < 0.0) return;
  if (expect_applies_ && rec.applied_s < 0.0) return;
  const double done_at = std::max(rec.acked_s, rec.applied_s);
  e2e_.add(done_at - rec.issued_s);
  if (rec.acked_s >= 0.0 && rec.applied_s >= 0.0) {
    // Ack↔apply skew: in the simulator the fleet applies first and the
    // ack travels back, so this is the ack's return-trip latency.
    ack_to_apply_.add(rec.acked_s - rec.applied_s);
  }
  rec.state = CommandLifecycle::State::kCompleted;
  ++completed_;
  end_span(now, rec);
  close(lane, it);
}

void LifecycleTracker::on_issued(double now, const CommandFrame& frame,
                                 double obs_age_s) {
  LaneMap& lane = open_[static_cast<int>(frame.kind)];
  // A fresh same-kind command supersedes the newest still-in-flight one
  // (mirrors CommandActuator::issue).  The superseded record stays open so
  // a late ack/apply still lands on its timeline.
  if (!lane.empty()) {
    CommandLifecycle& prev = lane.rbegin()->second;
    if (prev.state == CommandLifecycle::State::kInFlight) {
      prev.state = CommandLifecycle::State::kSuperseded;
      ++superseded_;
      trace_instant(trace_, now, "cp.lifecycle", "cmd-superseded");
      end_span(now, prev);
    }
  }
  CommandLifecycle rec;
  rec.kind = frame.kind;
  rec.gen = frame.gen;
  rec.era = frame.era;
  rec.value = frame.value;
  rec.issued_s = now;
  rec.obs_age_s = obs_age_s;
  rec.last_sent_s = now;
  ++issued_;
  obs_age_.add(obs_age_s);
  trace_async_begin(trace_, now, "cp.lifecycle", span_name(rec.kind), span_id(rec));
  const auto [it, inserted] = lane.emplace(frame.gen, rec);
  if (!inserted) {
    // A reborn controller (cold restart) reuses generations: close the
    // pre-crash record and track the fresh command under the same key.
    close(lane, it);
    lane.emplace(frame.gen, rec);
  }
}

void LifecycleTracker::on_retransmit(double now, const CommandFrame& frame) {
  ++retransmits_;
  trace_instant(trace_, now, "cp.lifecycle", "cmd-retransmit");
  LaneMap& lane = open_[static_cast<int>(frame.kind)];
  const auto it = lane.find(frame.gen);
  if (it == lane.end()) {
    ++late_events_;
    return;
  }
  ++it->second.retransmits;
  it->second.last_sent_s = now;
}

void LifecycleTracker::on_acked(double now, CommandKind kind, std::uint64_t gen) {
  LaneMap& lane = open_[static_cast<int>(kind)];
  const auto it = lane.find(gen);
  if (it == lane.end()) {
    ++late_events_;  // duplicate ack for a closed record, or unknown gen
    return;
  }
  CommandLifecycle& rec = it->second;
  if (rec.acked_s >= 0.0) {
    ++late_events_;
    return;
  }
  rec.acked_s = now;
  if (rec.state == CommandLifecycle::State::kInFlight) {
    ack_latency_.add(now - rec.issued_s);
    ++acked_;
    maybe_complete(lane, it, now);
  } else {
    ++late_events_;  // stale ack for a superseded/reconciled command
  }
}

void LifecycleTracker::on_applied(double now, CommandKind kind,
                                  std::uint64_t gen) {
  LaneMap& lane = open_[static_cast<int>(kind)];
  const auto it = lane.find(gen);
  if (it == lane.end()) {
    ++late_events_;
    return;
  }
  CommandLifecycle& rec = it->second;
  if (rec.applied_s >= 0.0) {
    ++late_events_;
    return;
  }
  rec.applied_s = now;
  ++applied_;  // superseded commands still get applied for real
  if (rec.state == CommandLifecycle::State::kInFlight) {
    apply_latency_.add(now - rec.issued_s);
    maybe_complete(lane, it, now);
  }
}

void LifecycleTracker::on_lane_reconciled(double now, CommandKind kind) {
  LaneMap& lane = open_[static_cast<int>(kind)];
  if (lane.empty()) return;
  CommandLifecycle& rec = lane.rbegin()->second;
  // Only the newest record can have been actuator-outstanding; anything
  // already acked (or terminal) is not a reconciliation.
  if (rec.state != CommandLifecycle::State::kInFlight || rec.acked_s >= 0.0) {
    return;
  }
  rec.state = CommandLifecycle::State::kReconciled;
  ++reconciled_;
  trace_instant(trace_, now, "cp.lifecycle", "cmd-reconciled");
  end_span(now, rec);
}

void LifecycleTracker::on_command_frame_dropped(double now,
                                                const CommandFrame& frame,
                                                DropCause cause) {
  attribution_.charge(FrameClass::kCommand, cause);
  LaneMap& lane = open_[static_cast<int>(frame.kind)];
  const auto it = lane.find(frame.gen);
  if (it != lane.end()) ++it->second.frame_drops;
  trace_instant(trace_, now, "cp.lifecycle", "cmd-frame-dropped");
}

void LifecycleTracker::finalize_all(double now) {
  for (LaneMap& lane : open_) {
    while (!lane.empty()) {
      const auto it = lane.begin();
      if (it->second.state == CommandLifecycle::State::kInFlight) {
        end_span(now, it->second);
      }
      close(lane, it);
    }
  }
}

std::vector<CommandLifecycle> LifecycleTracker::records() const {
  std::vector<CommandLifecycle> out = done_;
  for (const LaneMap& lane : open_) {
    for (const auto& [gen, rec] : lane) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const CommandLifecycle& a, const CommandLifecycle& b) {
              if (a.issued_s != b.issued_s) return a.issued_s < b.issued_s;
              return a.id() < b.id();
            });
  return out;
}

void write_lifecycle_jsonl(std::ostream& os,
                           const std::vector<CommandLifecycle>& records) {
  // Rendered into one buffer and written once; append_g is %.17g, which
  // round-trips doubles exactly, matching the audit/counters writers.
  std::string out;
  out.reserve(records.size() * 256);  // a record renders to ~210 bytes
  for (const CommandLifecycle& rec : records) {
    out += "{\"kind\":\"";
    out += to_string(rec.kind);
    out += "\",\"gen\":";
    append_u64(out, rec.gen);
    out += ",\"id\":";
    append_u64(out, rec.id());
    out += ",\"era\":";
    append_u64(out, rec.era);
    out += ",\"value\":";
    append_g(out, rec.value);
    out += ",\"issued_s\":";
    append_g(out, rec.issued_s);
    out += ",\"obs_age_s\":";
    append_g(out, rec.obs_age_s);
    out += ",\"retransmits\":";
    append_u64(out, rec.retransmits);
    out += ",\"frame_drops\":";
    append_u64(out, rec.frame_drops);
    out += ",\"last_sent_s\":";
    append_g(out, rec.last_sent_s);
    out += ",\"acked_s\":";
    append_g(out, rec.acked_s);
    out += ",\"applied_s\":";
    append_g(out, rec.applied_s);
    out += ",\"state\":\"";
    out += to_string(rec.state);
    out += "\"}\n";
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void LifecycleTracker::counters_into(CountersSnapshot& snap) const {
  snap.add_counter("cp.lifecycle.issued", issued_);
  snap.add_counter("cp.lifecycle.retransmits", retransmits_);
  snap.add_counter("cp.lifecycle.acked", acked_);
  snap.add_counter("cp.lifecycle.applied", applied_);
  snap.add_counter("cp.lifecycle.completed", completed_);
  snap.add_counter("cp.lifecycle.superseded", superseded_);
  snap.add_counter("cp.lifecycle.reconciled", reconciled_);
  snap.add_counter("cp.lifecycle.late_events", late_events_);
  if (evicted_ > 0) snap.add_counter("cp.lifecycle.records_evicted", evicted_);
  std::uint64_t open_count = 0;
  for (const LaneMap& lane : open_) open_count += lane.size();
  snap.add_gauge("cp.lifecycle.open", static_cast<double>(open_count));
  snap.add_gauge("cp.lifecycle.retransmit_rate",
                 issued_ == 0
                     ? 0.0
                     : static_cast<double>(retransmits_) /
                           static_cast<double>(issued_));
  // Literal `<stage>:<quantile>` gauge names — ci/check.sh gates these
  // through `gcinspect --check 'cp.lifecycle.ack_latency:p99<=...'`.
  snap.add_gauge("cp.lifecycle.ack_latency:p50", ack_latency_.quantile(0.50));
  snap.add_gauge("cp.lifecycle.ack_latency:p99", ack_latency_.quantile(0.99));
  snap.add_gauge("cp.lifecycle.apply_latency:p50", apply_latency_.quantile(0.50));
  snap.add_gauge("cp.lifecycle.apply_latency:p99", apply_latency_.quantile(0.99));
  snap.add_gauge("cp.lifecycle.e2e:p99", e2e_.quantile(0.99));
  snap.add_gauge("cp.lifecycle.obs_age:p99", obs_age_.quantile(0.99));
  attribution_.counters_into(snap);
}

std::vector<PrometheusHistogram> LifecycleTracker::prometheus_histograms()
    const {
  return {
      {"cp.lifecycle.ack_latency_seconds", &ack_latency_},
      {"cp.lifecycle.apply_latency_seconds", &apply_latency_},
      {"cp.lifecycle.ack_to_apply_seconds", &ack_to_apply_},
      {"cp.lifecycle.e2e_seconds", &e2e_},
      {"cp.lifecycle.obs_age_seconds", &obs_age_},
  };
}

}  // namespace gc
