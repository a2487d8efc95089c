#include "sim/control_channel.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace gc {

void ChannelLinkOptions::validate(const char* link_name) const {
  const std::string prefix = std::string("ChannelLinkOptions(") + link_name + "): ";
  if (!(drop_prob >= 0.0 && drop_prob < 1.0)) {
    // drop_prob == 1 would sever the link entirely; that is a broken
    // configuration (the controller could never act), not a degraded one.
    throw std::invalid_argument(prefix + "drop_prob must be in [0, 1)");
  }
  if (!(latency_base_s >= 0.0) || !std::isfinite(latency_base_s)) {
    throw std::invalid_argument(prefix + "latency_base_s must be finite and >= 0");
  }
  if (!(latency_jitter_s >= 0.0) || !std::isfinite(latency_jitter_s)) {
    throw std::invalid_argument(prefix + "latency_jitter_s must be finite and >= 0");
  }
}

void ControlChannelOptions::validate() const {
  telemetry.validate("telemetry");
  command.validate("command");
  ack.validate("ack");
}

ControlChannel::ControlChannel(const ControlChannelOptions& options,
                               std::uint64_t derived_seed) {
  options.validate();
  links_[kTelemetry].options = options.telemetry;
  links_[kCommand].options = options.command;
  links_[kAck].options = options.ack;
  const std::uint64_t seed = options.seed != 0 ? options.seed : derived_seed;
  // Streams 11..13: disjoint from the dispatcher (3), cluster group RNG
  // (5) and admission control (7) streams drawn from the same seed.
  for (int i = 0; i < kNumLinks; ++i) {
    links_[i].rng = Rng(seed, /*stream=*/11 + static_cast<std::uint64_t>(i));
  }
}

std::optional<double> ControlChannel::sample(LinkIndex which) {
  Link& link = links_[which];
  ++link.counters.sent;
  // Draw-only-when-needed: a perfect link consumes no randomness, so a
  // zero-loss/zero-jitter channel is bit-identical to no channel at all.
  if (link.options.drop_prob > 0.0 &&
      link.rng.uniform01() < link.options.drop_prob) {
    ++link.counters.dropped;
    return std::nullopt;
  }
  double delay = link.options.latency_base_s;
  if (link.options.latency_jitter_s > 0.0) {
    delay += link.options.latency_jitter_s * link.rng.uniform01();
  }
  return delay;
}

void ControllerFaultOptions::validate() const {
  for (const ControllerOutage& outage : script) {
    if (!(outage.start_s >= 0.0) || !std::isfinite(outage.start_s)) {
      throw std::invalid_argument(
          "ControllerFaultOptions: outage start_s must be finite and >= 0");
    }
    if (!(outage.duration_s > 0.0) || !std::isfinite(outage.duration_s)) {
      throw std::invalid_argument(
          "ControllerFaultOptions: outage duration_s must be finite and > 0");
    }
  }
  if (!(mtbf_s >= 0.0) || !std::isfinite(mtbf_s)) {
    throw std::invalid_argument(
        "ControllerFaultOptions: mtbf_s must be finite and >= 0");
  }
  if (mtbf_s > 0.0 && (!(mttr_s > 0.0) || !std::isfinite(mttr_s))) {
    throw std::invalid_argument(
        "ControllerFaultOptions: mttr_s must be finite and > 0 when mtbf_s > 0");
  }
}

}  // namespace gc
