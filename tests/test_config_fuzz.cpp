// Property-style round-trip and malformed-input tests for the two text
// formats the toolchain persists: INI config files (core/config_io) and
// arrival-trace CSVs (workload/trace).
//
// The round-trip property is *byte* stability: serialize → parse →
// serialize must reproduce the first serialization exactly.  (One
// serialization is allowed to canonicalize — {:.9g} formatting — but the
// canonical form must be a fixed point, or configs would drift every time
// a tool loads and saves them.)  The malformed corpus checks that
// truncated, non-numeric, NaN/Inf and duplicate-key inputs fail with a
// catchable exception — never UB, aborts, or silently-poisoned values.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "stats/rng.h"
#include "workload/trace.h"

namespace gc {
namespace {

// -- config write -> parse -> write -----------------------------------------

std::string serialize(const ClusterConfig& config, const DcpParams& dcp) {
  return to_ini(config, dcp).to_string();
}

ClusterConfig random_config(Rng& rng) {
  ClusterConfig config;
  config.max_servers = 1 + static_cast<unsigned>(rng.uniform01() * 500.0);
  config.min_servers =
      1 + static_cast<unsigned>(rng.uniform01() * (config.max_servers - 1));
  config.mu_max = 0.5 + rng.uniform01() * 100.0;
  // T_ref must exceed the bare service time 1/mu at full speed.
  config.t_ref_s = 1.0 / config.mu_max * (1.5 + rng.uniform01() * 10.0);
  config.perf_model =
      rng.uniform01() < 0.5 ? PerfModel::kMm1PerServer : PerfModel::kMmcCluster;
  config.power.p_idle_watts = 50.0 + rng.uniform01() * 250.0;
  config.power.p_max_watts = config.power.p_idle_watts + 1.0 + rng.uniform01() * 300.0;
  config.power.p_off_watts = rng.uniform01() * 10.0;
  config.power.alpha = 1.0 + rng.uniform01() * 2.0;
  config.power.utilization_gated = rng.uniform01() < 0.5;
  if (rng.uniform01() < 0.5) {
    std::vector<double> ghz;
    double f = 0.5 + rng.uniform01();
    const std::size_t levels = 2 + static_cast<std::size_t>(rng.uniform01() * 6.0);
    for (std::size_t i = 0; i < levels; ++i) {
      ghz.push_back(f);
      f += 0.1 + rng.uniform01() * 0.5;
    }
    config.ladder = FrequencyLadder(std::move(ghz));
  } else {
    config.ladder = FrequencyLadder::continuous(0.1 + rng.uniform01() * 0.8);
  }
  config.transition.boot_delay_s = rng.uniform01() * 120.0;
  config.transition.shutdown_delay_s = rng.uniform01() * 30.0;
  return config;
}

DcpParams random_dcp(Rng& rng) {
  DcpParams dcp;
  dcp.long_period_s = 60.0 + rng.uniform01() * 600.0;
  dcp.short_period_s = 1.0 + rng.uniform01() * 59.0;
  dcp.safety_margin = 1.0 + rng.uniform01();
  dcp.scale_down_patience = 1 + static_cast<unsigned>(rng.uniform01() * 9.0);
  dcp.auto_patience_from_break_even = rng.uniform01() < 0.5;
  return dcp;
}

TEST(ConfigRoundTrip, DefaultsAreByteStable) {
  const std::string first = serialize(ClusterConfig{}, DcpParams{});
  const IniFile parsed = IniFile::parse(first);
  const std::string second =
      serialize(cluster_config_from_ini(parsed), dcp_params_from_ini(parsed));
  EXPECT_EQ(first, second);
}

TEST(ConfigRoundTrip, RandomConfigsAreByteStable) {
  for (int i = 0; i < 200; ++i) {
    Rng draw(static_cast<std::uint64_t>(i) + 1, 2);
    const ClusterConfig config = random_config(draw);
    const DcpParams dcp = random_dcp(draw);
    const std::string first = serialize(config, dcp);
    const IniFile parsed = IniFile::parse(first);
    const ClusterConfig config2 = cluster_config_from_ini(parsed);
    const DcpParams dcp2 = dcp_params_from_ini(parsed);
    const std::string second = serialize(config2, dcp2);
    ASSERT_EQ(first, second) << "round-trip drift at iteration " << i;
    // And the parse is loss-free at the {:.9g} precision the writer uses.
    ASSERT_EQ(config2.max_servers, config.max_servers);
    ASSERT_EQ(config2.perf_model, config.perf_model);
    ASSERT_NEAR(config2.mu_max, config.mu_max, 1e-6 * config.mu_max);
  }
}

TEST(ConfigRoundTrip, SecondGenerationIsAFixedPoint) {
  // Even hand-written input with non-canonical spelling converges after
  // one write and never moves again.
  const IniFile hand = IniFile::parse(
      "[cluster]\nmax_servers=12\nmu_max = 010.250\nt_ref_ms =\t500\n");
  const std::string gen1 =
      serialize(cluster_config_from_ini(hand), dcp_params_from_ini(hand));
  const IniFile reparsed = IniFile::parse(gen1);
  const std::string gen2 =
      serialize(cluster_config_from_ini(reparsed), dcp_params_from_ini(reparsed));
  EXPECT_EQ(gen1, gen2);
}

// -- malformed config corpus -------------------------------------------------

TEST(ConfigCorpus, TruncatedInputsThrow) {
  EXPECT_THROW(IniFile::parse("[cluster\nmax_servers = 4\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[]\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("max_servers = 4\n"), std::runtime_error);  // no section
  EXPECT_THROW(IniFile::parse("[cluster]\nmax_servers\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[cluster]\n= 4\n"), std::runtime_error);
}

TEST(ConfigCorpus, NonNumericValuesThrowAtTypedRead) {
  const IniFile ini = IniFile::parse("[cluster]\nmax_servers = twelve\n");
  EXPECT_THROW((void)cluster_config_from_ini(ini), std::runtime_error);
  const IniFile garbled = IniFile::parse("[cluster]\nmu_max = 12abc\n");
  EXPECT_THROW((void)cluster_config_from_ini(garbled), std::runtime_error);
}

TEST(ConfigCorpus, NaNAndInfValuesAreRejected) {
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    const IniFile ini =
        IniFile::parse(std::string("[cluster]\nmu_max = ") + bad + "\n");
    EXPECT_THROW((void)cluster_config_from_ini(ini), std::runtime_error)
        << "accepted mu_max = " << bad;
  }
  const IniFile dcp_nan = IniFile::parse("[dcp]\nsafety_margin = nan\n");
  EXPECT_THROW((void)dcp_params_from_ini(dcp_nan), std::runtime_error);
  const IniFile ladder_inf = IniFile::parse("[ladder]\nlevels_ghz = 1.0 inf\n");
  EXPECT_THROW((void)cluster_config_from_ini(ladder_inf), std::runtime_error);
}

TEST(ConfigCorpus, DuplicateKeysKeepTheLastValue) {
  // Documented parser behavior (see test_ini): duplicates are not an
  // error, the last assignment wins — deterministic, never UB.  The config
  // layer inherits that contract.
  const IniFile ini =
      IniFile::parse("[cluster]\nmax_servers = 4\nmax_servers = 9\n");
  EXPECT_EQ(cluster_config_from_ini(ini).max_servers, 9u);
}

TEST(ConfigCorpus, OutOfRangeIntegersThrow) {
  const IniFile negative = IniFile::parse("[cluster]\nmax_servers = -3\n");
  EXPECT_THROW((void)cluster_config_from_ini(negative), std::runtime_error);
  const IniFile huge = IniFile::parse("[cluster]\nmax_servers = 8589934592\n");
  EXPECT_THROW((void)cluster_config_from_ini(huge), std::runtime_error);
}

// -- trace write -> parse -> write -------------------------------------------

class TempDir {
 public:
  // Unique per instance: ctest runs each TEST as a separate process, so a
  // shared fixed path would let one test's cleanup delete another's files.
  TempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("gc_fuzz_trace_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::filesystem::path file(const std::string& name) const {
    return path_ / name;
  }

 private:
  static inline std::atomic<int> counter_{0};
  std::filesystem::path path_;
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(TraceRoundTrip, RandomTracesAreByteStable) {
  TempDir tmp;
  Rng rng(77, 3);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> ts;
    double t = 0.0;
    const std::size_t n = static_cast<std::size_t>(rng.uniform01() * 200.0);
    for (std::size_t k = 0; k < n; ++k) {
      t += rng.uniform01() * 3.0;
      ts.push_back(t);
    }
    const Trace trace(ts);
    const auto p1 = tmp.file("a.csv");
    const auto p2 = tmp.file("b.csv");
    trace.save_csv(p1);
    const Trace back = Trace::load_csv(p1);
    back.save_csv(p2);
    ASSERT_EQ(slurp(p1), slurp(p2)) << "trace round-trip drift at iteration " << i;
    ASSERT_EQ(back.size(), trace.size());
  }
}

TEST(TraceRoundTrip, EmptyTraceRoundTrips) {
  TempDir tmp;
  const auto path = tmp.file("empty.csv");
  Trace().save_csv(path);
  const Trace back = Trace::load_csv(path);
  EXPECT_TRUE(back.empty());
}

// -- malformed trace corpus ---------------------------------------------------

TEST(TraceCorpus, MalformedFilesThrow) {
  TempDir tmp;
  const auto write = [&](const std::string& name, const std::string& text) {
    const auto path = tmp.file(name);
    std::ofstream out(path);
    out << text;
    return path;
  };
  // Truncated: no header at all.
  EXPECT_THROW((void)Trace::load_csv(write("t1.csv", "")), std::runtime_error);
  // Wrong column name.
  EXPECT_THROW((void)Trace::load_csv(write("t2.csv", "departure_s\n1.0\n")),
               std::runtime_error);
  // Truncated row (missing the value).
  EXPECT_THROW((void)Trace::load_csv(write("t3.csv", "arrival_s\n1.0\n\n2.0,\n")),
               std::runtime_error);
  // Non-numeric cell.
  EXPECT_THROW((void)Trace::load_csv(write("t4.csv", "arrival_s\nbogus\n")),
               std::runtime_error);
  // NaN / Inf / negative are data errors, not parse errors, and still throw.
  EXPECT_THROW((void)Trace::load_csv(write("t5.csv", "arrival_s\n1.0\nnan\n")),
               std::runtime_error);
  EXPECT_THROW((void)Trace::load_csv(write("t6.csv", "arrival_s\ninf\n")),
               std::runtime_error);
  EXPECT_THROW((void)Trace::load_csv(write("t7.csv", "arrival_s\n-1.0\n")),
               std::runtime_error);
  // Missing file.
  EXPECT_THROW((void)Trace::load_csv(tmp.file("absent.csv")), std::runtime_error);
}

TEST(TraceCorpus, UnsortedInputIsCanonicalizedNotRejected) {
  // The loader sorts (documented): a shuffled but valid file loads into a
  // sorted trace and round-trips byte-stably from then on.
  TempDir tmp;
  const auto path = tmp.file("shuffled.csv");
  {
    std::ofstream out(path);
    out << "arrival_s\n3.5\n1.25\n2\n";
  }
  const Trace trace = Trace::load_csv(path);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.timestamps()[0], 1.25);
  EXPECT_DOUBLE_EQ(trace.timestamps()[2], 3.5);
  const auto p2 = tmp.file("sorted.csv");
  const auto p3 = tmp.file("sorted2.csv");
  trace.save_csv(p2);
  Trace::load_csv(p2).save_csv(p3);
  EXPECT_EQ(slurp(p2), slurp(p3));
}

}  // namespace
}  // namespace gc
