// cp_serve: the durable wire transport in a closed loop, as gcreplay
// operators run it.  Setup records one combined-DCP day's decision audit
// log on the sequential engine and derives, from an in-process oracle
// facade, the exact command frames each tick must produce.  Every pass then
// serves that day over a fresh socketpair to serve_connection(): the server
// journals every accepted inbound frame to a WalWriter and cuts a snapshot
// + WAL reset every 64 ticks, all in memory; the single fleet client sends
// telemetry + tick, reads back the tick's command frames, checks them
// against the oracle and acks each one.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/provisioner.h"
#include "cp/control_plane.h"
#include "cp/wal.h"
#include "cp/wire.h"
#include "obs/audit.h"
#include "stats/log_histogram.h"
#include "util/format.h"

namespace gcbench {
namespace {

// gcreplay's --checkpoint-every default.
constexpr std::uint64_t kCheckpointEvery = 64;

gc::ControlPlaneOptions cp_options() {
  gc::ControlPlaneOptions o;
  o.actuator.enabled = true;  // acks carry real protocol work
  return o;
}

gc::Rng cp_rng() { return gc::Rng(/*seed=*/1, /*stream=*/14); }

struct TickInput {
  gc::TelemetryFrame telemetry;
  gc::TickMsg tick;
  std::vector<gc::CommandFrame> expected;  // the oracle's command frames
};

struct ServeInput {
  DayInput day;
  std::vector<TickInput> ticks;
  double record_s = 0.0;  // the recording run_simulation
  std::uint64_t record_events = 0;
};

// The telemetry frame an audit record says its tick planned on (the
// reconstruction gcreplay performs).
gc::TelemetryFrame frame_of(const gc::AuditRecord& rec) {
  gc::TelemetryFrame f;
  f.sample_time = rec.time_s - rec.obs_age_s;
  f.rate = rec.observed_rate;
  f.serving = rec.serving;
  f.committed = rec.committed;
  f.powered = rec.powered;
  f.available = rec.available;
  f.jobs_in_system = rec.jobs_in_system;
  return f;
}

ServeInput make_serve_input(std::uint64_t seed, double days) {
  ServeInput in;
  in.day = make_day_input(seed, days);
  gc::DecisionAuditLog audit;
  {
    const gc::Provisioner solver(in.day.config);
    const auto policy =
        gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, dcp_options());
    gc::Workload workload =
        gc::Workload::trace_replay(in.day.trace,
                                   gc::Distribution::exponential(in.day.config.mu_max),
                                   job_seed_of(seed));
    gc::SimulationOptions sim = day_sim_options(in.day.config);
    sim.audit = &audit;
    const auto t0 = Clock::now();
    const gc::SimResult r =
        gc::run_simulation(workload, day_cluster_options(in.day.config), *policy, sim);
    in.record_s = seconds_since(t0);
    in.record_events = sequential_events(r);
  }
  const gc::Provisioner solver(in.day.config);
  gc::ControlPlane oracle(
      gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, dcp_options()), cp_options(),
      cp_rng());
  for (const gc::AuditRecord& rec : audit.records()) {
    TickInput t{frame_of(rec), {rec.time_s, rec.long_tick, rec.safe_mode}, {}};
    oracle.accept_telemetry(t.telemetry);
    const auto decision = oracle.on_tick(t.tick.now, t.tick.long_tick, t.tick.safe_mode);
    for (const auto& ob : decision.commands) t.expected.push_back(ob.frame);
    for (const gc::CommandFrame& c : t.expected) oracle.on_ack(t.tick.now, c.kind, c.gen);
    in.ticks.push_back(std::move(t));
  }
  return in;
}

bool frames_equal(const gc::CommandFrame& a, const gc::CommandFrame& b) {
  return a.kind == b.kind &&
         std::bit_cast<std::uint64_t>(a.value) == std::bit_cast<std::uint64_t>(b.value) &&
         a.gen == b.gen && a.era == b.era;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(gc::format("send failed: {}", std::strerror(errno)));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

// Reads until `want` command frames decoded (or EOF when want is 0).
void read_commands(int fd, gc::FrameDecoder& dec, std::size_t want,
                   std::vector<gc::CommandFrame>& out) {
  char chunk[512];
  for (;;) {
    while (out.size() < want || want == 0) {
      const auto msg = dec.next();
      if (!msg) break;
      if (msg->type != gc::WireMsgType::kCommand) {
        throw gc::WireError("non-command frame travelling fleet-ward");
      }
      out.push_back(msg->command);
    }
    if (want != 0 && out.size() >= want) return;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(gc::format("recv failed: {}", std::strerror(errno)));
    }
    if (n == 0) {
      if (want == 0) return;
      throw std::runtime_error("server closed the connection mid-tick");
    }
    dec.feed(chunk, static_cast<std::size_t>(n));
  }
}

struct ServePass {
  double run_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t mismatched_ticks = 0;
  gc::WireServeStats stats;
  std::string error;  // transport failure, empty when clean
  std::uint64_t decide_ticks = 0;
  double decide_s = 0.0;
  gc::SolverCacheStats cache;
};

// Serves the day once over a fresh connection to a fresh facade; appends
// one round-trip sample per tick to `rtt`.
ServePass serve_day(const ServeInput& in, bool traced, gc::LogHistogram& rtt) {
  ServePass pass;
  const gc::Provisioner solver(in.day.config);
  const auto policy = gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, dcp_options());
  TimedController timed(*policy);
  gc::ControlPlane cp(traced ? static_cast<gc::Controller&>(timed) : *policy, cp_options(),
                      cp_rng());
  // The durable state a transport would persist, kept in memory here.
  gc::WalWriter wal;
  std::string checkpoint;
  gc::WireHooks hooks;
  hooks.on_accepted = [&](const gc::WireMessage& msg) {
    wal.append(msg);
    if (msg.type == gc::WireMsgType::kTick && cp.ticks() % kCheckpointEvery == 0) {
      checkpoint = cp.snapshot();
      wal.reset();
    }
  };

  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error(gc::format("socketpair failed: {}", std::strerror(errno)));
  }
  // A lost frame must fail the run, not hang it.
  const timeval timeout{10, 0};
  ::setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  const auto t0 = Clock::now();
  std::exception_ptr server_error;
  std::thread server([&cp, fd = sv[1], &pass, &hooks, &server_error] {
    try {
      gc::serve_connection(cp, fd, pass.stats, &hooks);
    } catch (...) {
      server_error = std::current_exception();
    }
    ::shutdown(fd, SHUT_RDWR);
  });

  gc::FrameDecoder dec;
  std::string buf;
  std::vector<gc::CommandFrame> got;
  try {
    for (const TickInput& t : in.ticks) {
      buf.clear();
      gc::append_telemetry_frame(buf, t.telemetry);
      gc::append_tick_frame(buf, t.tick);
      const auto sent = Clock::now();
      send_all(sv[0], buf);
      got.clear();
      if (!t.expected.empty()) {
        read_commands(sv[0], dec, t.expected.size(), got);
        rtt.add(seconds_since(sent));
      }
      bool same = got.size() == t.expected.size();
      for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = frames_equal(got[i], t.expected[i]);
      }
      if (!same) ++pass.mismatched_ticks;
      buf.clear();
      for (const gc::CommandFrame& c : got) {
        gc::append_ack_frame(buf, {t.tick.now, c.kind, c.gen});
      }
      send_all(sv[0], buf);
      pass.frames += 2 + 2 * got.size();
    }
    ::shutdown(sv[0], SHUT_WR);
    got.clear();
    read_commands(sv[0], dec, 0, got);  // nothing may follow the last tick
    if (!got.empty()) ++pass.mismatched_ticks;
  } catch (const std::exception& e) {
    pass.error = e.what();
    ::shutdown(sv[0], SHUT_RDWR);
  }
  server.join();
  pass.run_s = seconds_since(t0);
  ::close(sv[0]);
  ::close(sv[1]);
  if (server_error && pass.error.empty()) {
    try {
      std::rethrow_exception(server_error);
    } catch (const std::exception& e) {
      pass.error = std::string("server: ") + e.what();
    }
  }
  pass.decide_ticks = timed.ticks();
  pass.decide_s = timed.decide_s();
  pass.cache = solver.cache_stats();
  return pass;
}

// The cp layer's calls timed in-process on the same input, one call at a
// time: what the wire adds is the round trip minus these.
struct Mean {
  double sum = 0.0;
  std::uint64_t n = 0;
  void add(double x) {
    sum += x;
    ++n;
  }
  [[nodiscard]] double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

struct CpLedger {
  Mean tick_ns, telemetry_ns, ack_ns, snapshot_ns, restore_ns;
  double snapshot_bytes = 0.0;
  double wal_bytes = 0.0;
  std::uint64_t wal_ticks = 0;
  double encode_ns = 0.0, decode_ns = 0.0;
  std::uint64_t codec_frames = 0;
};

double clock_overhead_ns() {
  constexpr int kReads = 10000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  return seconds_since(t0) * 1e9 / kReads;
}

void measure_cp_layers(const ServeInput& in, double overhead_ns, CpLedger& l) {
  const gc::Provisioner solver(in.day.config);
  const auto make = [&] {
    return gc::make_policy(gc::PolicyKind::kCombinedDcp, &solver, dcp_options());
  };
  gc::ControlPlane cp(make(), cp_options(), cp_rng());
  gc::WalWriter wal;
  auto ns = [overhead_ns](Clock::time_point t0) {
    const double v = seconds_since(t0) * 1e9 - overhead_ns;
    return v > 0.0 ? v : 0.0;
  };
  std::string stream;  // every frame of the day, for the codec timings
  for (const TickInput& t : in.ticks) {
    auto t0 = Clock::now();
    cp.accept_telemetry(t.telemetry);
    l.telemetry_ns.add(ns(t0));
    t0 = Clock::now();
    const gc::ControlPlane::Decision d =
        cp.on_tick(t.tick.now, t.tick.long_tick, t.tick.safe_mode);
    l.tick_ns.add(ns(t0));
    wal.append_telemetry(t.telemetry);
    wal.append_tick(t.tick);
    gc::append_telemetry_frame(stream, t.telemetry);
    gc::append_tick_frame(stream, t.tick);
    for (const auto& ob : d.commands) {
      gc::append_command_frame(stream, ob.frame);
      const gc::AckWireMsg ack{t.tick.now, ob.frame.kind, ob.frame.gen};
      gc::append_ack_frame(stream, ack);
      wal.append_ack(ack);
      t0 = Clock::now();
      cp.on_ack(ack.now, ack.kind, ack.gen);
      l.ack_ns.add(ns(t0));
    }
    if (cp.ticks() % kCheckpointEvery == 0) {
      l.wal_bytes += static_cast<double>(wal.bytes().size());
      l.wal_ticks += kCheckpointEvery;
      t0 = Clock::now();
      const std::string snap = cp.snapshot();
      l.snapshot_ns.add(ns(t0));
      l.snapshot_bytes = static_cast<double>(snap.size());
      gc::ControlPlane reborn(make(), cp_options(), gc::Rng(/*seed=*/99, /*stream=*/14));
      t0 = Clock::now();
      reborn.restore(snap);
      l.restore_ns.add(ns(t0));
      wal.reset();
    }
  }
  // Codec cost per frame over the day's whole stream: decode it, then
  // re-encode the decoded messages, which must give the same bytes.
  gc::FrameDecoder dec;
  std::vector<gc::WireMessage> msgs;
  auto t0 = Clock::now();
  dec.feed(stream);
  while (auto m = dec.next()) msgs.push_back(*m);
  l.decode_ns += seconds_since(t0) * 1e9;
  std::string out;
  out.reserve(stream.size());
  t0 = Clock::now();
  for (const gc::WireMessage& m : msgs) {
    switch (m.type) {
      case gc::WireMsgType::kTelemetry: gc::append_telemetry_frame(out, m.telemetry); break;
      case gc::WireMsgType::kTick: gc::append_tick_frame(out, m.tick); break;
      case gc::WireMsgType::kCommand: gc::append_command_frame(out, m.command); break;
      case gc::WireMsgType::kAck: gc::append_ack_frame(out, m.ack); break;
    }
  }
  l.encode_ns += seconds_since(t0) * 1e9;
  l.codec_frames += msgs.size();
  if (out != stream) throw std::runtime_error("wire re-encoding differs from the stream");
}

}  // namespace

void run_cp_serve(const Options& options, Report& report) {
  ServeInput in;
  std::vector<double> synth_s;
  const double setup_s = median_setup([&] {
    in = make_serve_input(options.seed, 1.0);
    synth_s.push_back(in.day.synth_s);
  });

  std::vector<double> run_s, traced_s, decide_s;
  gc::LogHistogram rtt, traced_rtt;  // seconds
  std::uint64_t frames = 0;
  ServePass traced_pass;
  CpLedger cp_ledger;
  const double overhead_ns = options.trace ? clock_overhead_ns() : 0.0;
  PassCpus cpus;
  RefClock ref;
  auto measured = [&](bool traced) {
    const CpuPin pin(cpus.next());
    // Round trips come from untraced passes only.
    ServePass pass = serve_day(in, traced, traced ? traced_rtt : rtt);
    std::string why = pass.error;
    if (why.empty() && (pass.stats.crc_errors != 0 || pass.stats.decode_errors != 0)) {
      why = gc::format("{} crc / {} decode errors", pass.stats.crc_errors,
                       pass.stats.decode_errors);
    }
    const std::uint64_t ticks = in.ticks.size();
    const std::uint64_t bad = why.empty() ? pass.mismatched_ticks : ticks;
    report.passed(ticks - bad);
    for (std::uint64_t i = 0; i < bad; ++i) {
      report.attempt(false, why.empty() ? "cp_serve: tick commands differ from the oracle"
                                        : "cp_serve: " + why);
    }
    frames = pass.frames;
    (traced ? traced_s : run_s).push_back(pass.run_s);
    if (!options.trace) ref.pass(pass.run_s);
    if (traced) {
      decide_s.push_back(pass.decide_s);
      traced_pass = pass;
    }
  };
  repeat_for(options.seconds, 3, [&] {
    if (!options.trace) return measured(false);
    measured(true);
    measured(false);
    measure_cp_layers(in, overhead_ns, cp_ledger);
  });
  ref.flush();

  const double run = median(run_s);
  const double p50 = rtt.quantile(0.50) * 1e6;
  const double p99 = rtt.quantile(0.99) * 1e6;
  std::cout << gc::format(
      "cp_serve: {} ticks/day, {} frames/day; run_s {:.6g} s, frames_per_s {:.6g} 1/s; "
      "tick_rtt_p50_us {:.4g} us, tick_rtt_p99_us {:.4g} us over {} ticks\n",
      in.ticks.size(), frames, run, static_cast<double>(frames) / run, p50, p99,
      rtt.count());
  if (!options.trace) {
    const double run_ref = median(ref.ratios());
    std::cout << gc::format("reference kernel {:.6g} s\n", median(ref.kernel_s()));
    report.add("setup_s", setup_s, "s");
    report.add("run_ref", run_ref, "ref");
    report.add("ops_per_ref", static_cast<double>(frames) / run_ref, "1/ref");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  const double synth = median(synth_s);
  const auto arrivals = static_cast<double>(in.day.trace.size());
  const auto events = static_cast<double>(in.record_events);
  report.add("workload.synth_s", synth, "s");
  report.add("workload.arrivals", arrivals, "count");
  report.add("workload.synth_ns_per_arrival", synth / arrivals * 1e9, "ns");
  // The sim layer here is the setup's recording run.
  report.add("sim.events", events, "count");
  report.add("sim.self_s", in.record_s, "s");
  report.add("sim.ns_per_event", in.record_s / events * 1e9, "ns");
  const auto ticks = static_cast<double>(traced_pass.decide_ticks);
  report.add("control.ticks", ticks, "count");
  report.add("control.decide_s", median(decide_s), "s");
  report.add("control.decide_us_mean", median(decide_s) / ticks * 1e6, "us");
  const gc::SolverCacheStats& cache = traced_pass.cache;
  report.add("core.solver_calls", static_cast<double>(cache.hits + cache.misses), "count");
  report.add("core.solver_cache_hit_rate", cache.hit_rate(), "ratio");
  const double on_tick_us = cp_ledger.tick_ns.value() * 1e-3;
  report.add("cp.on_tick_us", on_tick_us, "us");
  report.add("cp.accept_telemetry_ns", cp_ledger.telemetry_ns.value(), "ns");
  report.add("cp.on_ack_ns", cp_ledger.ack_ns.value(), "ns");
  const auto codec_frames = static_cast<double>(cp_ledger.codec_frames);
  report.add("cp.wire.decode_ns_per_frame", cp_ledger.decode_ns / codec_frames, "ns");
  report.add("cp.wire.encode_ns_per_frame", cp_ledger.encode_ns / codec_frames, "ns");
  report.add("cp.wire.socket_us", p50 - on_tick_us, "us");
  report.add("cp.tick_rtt_p50_us", p50, "us");
  report.add("cp.tick_rtt_p99_us", p99, "us");
  report.add("cp.snapshot_us", cp_ledger.snapshot_ns.value() * 1e-3, "us");
  report.add("cp.snapshot_bytes", cp_ledger.snapshot_bytes, "B");
  report.add("cp.restore_us", cp_ledger.restore_ns.value() * 1e-3, "us");
  report.add("cp.wal_bytes_per_tick",
             cp_ledger.wal_bytes / static_cast<double>(cp_ledger.wal_ticks), "B");
  report.add("trace.overhead_s", median(traced_s) - run, "s");
}

}  // namespace gcbench
