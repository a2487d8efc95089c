#include "core/config_io.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "support/config_ini.h"

namespace gc {
namespace {

TEST(ConfigIo, EmptyIniYieldsDefaults) {
  const IniFile ini;
  const ClusterConfig config = cluster_config_from_ini(ini);
  const ClusterConfig defaults;
  EXPECT_EQ(config.max_servers, defaults.max_servers);
  EXPECT_DOUBLE_EQ(config.mu_max, defaults.mu_max);
  EXPECT_DOUBLE_EQ(config.t_ref_s, defaults.t_ref_s);
}

TEST(ConfigIo, ParsesFullConfig) {
  const IniFile ini = IniFile::parse(R"(
[cluster]
max_servers = 8
mu_max = 12.5
t_ref_ms = 400
min_servers = 2
perf_model = mmc

[power]
p_idle_w = 120
p_max_w = 260
p_off_w = 3
alpha = 2.5
utilization_gated = true

[ladder]
levels_ghz = 1.0 2.0 4.0

[transition]
boot_delay_s = 30
shutdown_delay_s = 4
)");
  const ClusterConfig config = cluster_config_from_ini(ini);
  EXPECT_EQ(config.max_servers, 8u);
  EXPECT_DOUBLE_EQ(config.mu_max, 12.5);
  EXPECT_DOUBLE_EQ(config.t_ref_s, 0.4);
  EXPECT_EQ(config.min_servers, 2u);
  EXPECT_EQ(config.perf_model, PerfModel::kMmcCluster);
  EXPECT_DOUBLE_EQ(config.power.p_idle_watts, 120.0);
  EXPECT_DOUBLE_EQ(config.power.alpha, 2.5);
  EXPECT_TRUE(config.power.utilization_gated);
  EXPECT_EQ(config.ladder.num_levels(), 3u);
  EXPECT_DOUBLE_EQ(config.ladder.min_speed(), 0.25);
  EXPECT_DOUBLE_EQ(config.transition.boot_delay_s, 30.0);
}

TEST(ConfigIo, ContinuousLadder) {
  const IniFile ini = IniFile::parse("[ladder]\ncontinuous_min_speed = 0.2\n");
  const ClusterConfig config = cluster_config_from_ini(ini);
  EXPECT_TRUE(config.ladder.is_continuous());
  EXPECT_DOUBLE_EQ(config.ladder.min_speed(), 0.2);
}

TEST(ConfigIo, RejectsInvalidConfigs) {
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nmax_servers = 0\n")),
               std::invalid_argument);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nperf_model = magic\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[ladder]\nlevels_ghz = 1.0 oops\n")),
               std::runtime_error);
  // SLA below 1/mu is caught by validate().
  EXPECT_THROW((void)cluster_config_from_ini(
                   IniFile::parse("[cluster]\nmu_max = 10\nt_ref_ms = 50\n")),
               std::invalid_argument);
}

TEST(ConfigIo, RejectsNegativeCounts) {
  // A negative count must error out, not wrap around to a huge unsigned.
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nmax_servers = -3\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nmin_servers = -1\n")),
               std::runtime_error);
  EXPECT_THROW((void)hetero_config_from_ini(IniFile::parse(
                   "[cluster]\nt_ref_ms = 500\n[class a]\ncount = -4\nmu_max = 10\n")),
               std::runtime_error);
  try {
    (void)cluster_config_from_ini(IniFile::parse("[cluster]\nmax_servers = -3\n"));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    // The message names the offending section, key and value.
    EXPECT_NE(std::string(e.what()).find("max_servers"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(ConfigIo, RejectsNonFiniteValues) {
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nmu_max = inf\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[cluster]\nmu_max = -5\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[power]\nalpha = nan\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[ladder]\nlevels_ghz = 1.0 nan\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(IniFile::parse("[ladder]\nlevels_ghz = 1.0 -2.0\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(
                   IniFile::parse("[ladder]\ncontinuous_min_speed = inf\n")),
               std::runtime_error);
  EXPECT_THROW((void)cluster_config_from_ini(
                   IniFile::parse("[transition]\nboot_delay_s = nan\n")),
               std::runtime_error);
}

TEST(ConfigIo, RoundTripPreservesEverything) {
  ClusterConfig config;
  config.max_servers = 24;
  config.mu_max = 33.5;
  config.t_ref_s = 0.125;
  config.min_servers = 3;
  config.perf_model = PerfModel::kMmcCluster;
  config.power.p_idle_watts = 111.0;
  config.power.utilization_gated = false;
  config.ladder = FrequencyLadder({0.8, 1.6, 3.2});
  config.transition.boot_delay_s = 45.0;

  const ClusterConfig back =
      cluster_config_from_ini(IniFile::parse(cluster_config_ini(config)));
  EXPECT_EQ(back.max_servers, 24u);
  EXPECT_DOUBLE_EQ(back.mu_max, 33.5);
  EXPECT_DOUBLE_EQ(back.t_ref_s, 0.125);
  EXPECT_EQ(back.min_servers, 3u);
  EXPECT_EQ(back.perf_model, PerfModel::kMmcCluster);
  EXPECT_DOUBLE_EQ(back.power.p_idle_watts, 111.0);
  EXPECT_FALSE(back.power.utilization_gated);
  ASSERT_EQ(back.ladder.num_levels(), 3u);
  EXPECT_DOUBLE_EQ(back.ladder.f_max_ghz(), 3.2);
  EXPECT_DOUBLE_EQ(back.transition.boot_delay_s, 45.0);
}

TEST(ConfigIo, HeteroFromIni) {
  const IniFile ini = IniFile::parse(R"(
[cluster]
t_ref_ms = 500

[class new]
count = 8
mu_max = 12
p_idle_w = 100
p_max_w = 200
utilization_gated = false

[class old]
count = 4
mu_max = 10
p_idle_w = 180
p_max_w = 300
levels_ghz = 1.2 2.4
)");
  const HeteroConfig config = hetero_config_from_ini(ini);
  ASSERT_EQ(config.classes.size(), 2u);
  EXPECT_DOUBLE_EQ(config.t_ref_s, 0.5);
  // Sections come back in sorted order: "class new" before "class old".
  EXPECT_EQ(config.classes[0].name, "new");
  EXPECT_EQ(config.classes[0].count, 8u);
  EXPECT_DOUBLE_EQ(config.classes[0].mu_max, 12.0);
  EXPECT_FALSE(config.classes[0].power.utilization_gated);
  EXPECT_EQ(config.classes[1].name, "old");
  EXPECT_EQ(config.classes[1].ladder.num_levels(), 2u);
}

TEST(ConfigIo, HeteroRequiresClassSections) {
  EXPECT_THROW((void)hetero_config_from_ini(IniFile::parse("[cluster]\nt_ref_ms = 500\n")),
               std::runtime_error);
}

TEST(ConfigIo, HeteroValidatesClasses) {
  // t_ref below 1/mu of a class fails validation.
  EXPECT_THROW((void)hetero_config_from_ini(IniFile::parse(
                   "[cluster]\nt_ref_ms = 50\n[class a]\ncount = 2\nmu_max = 10\n")),
               std::invalid_argument);
}

TEST(ConfigIo, RoundTripContinuousLadder) {
  ClusterConfig config;
  config.ladder = FrequencyLadder::continuous(0.15);
  const ClusterConfig back =
      cluster_config_from_ini(IniFile::parse(cluster_config_ini(config)));
  EXPECT_TRUE(back.ladder.is_continuous());
  EXPECT_DOUBLE_EQ(back.ladder.min_speed(), 0.15);
}

// Each of these once read silently wrong: a misspelled key fell back to its
// default, a repeated key kept its last value, a repeated class header
// merged two classes into one and a misspelled section was dropped.  Now
// each is an error naming the section, the key and the line.
TEST(ConfigIo, RejectsWhatItWouldOtherwiseMisread) {
  enum class Reader { kCluster, kHetero };
  struct Case {
    Reader reader;
    const char* text;
    const char* error;
  };
  const Case cases[] = {
      {Reader::kCluster, "[cluster]\nmu_max = 10\nmax_server = 7\n",
       "config line 3: unknown key 'max_server' in [cluster]"},
      {Reader::kCluster, "[cluster]\nmu_max = 10\nmu_max = 12\n",
       "ini line 3: repeated key 'mu_max' in [cluster] (first at line 2)"},
      {Reader::kCluster, "[cluster]\nmax_servers = 16\n[dcp]\nlong_period_s = 25\n",
       "config line 3: unknown section [dcp]"},
      {Reader::kHetero, "[class a]\ncount = 8\nmu_max = 12\n[class a]\ncount = 4\n",
       "ini line 4: repeated section [class a] (first at line 1)"},
      {Reader::kHetero, "[class a]\ncount = 8\nmu_max = 12\n[class  a]\ncount = 4\n",
       "config line 4: repeated class name 'a' (first at line 1)"},
      {Reader::kHetero, "[class a]\ncount = 8\nmu_max = 12\n[clas b]\ncount = 4\n",
       "config line 4: unknown section [clas b]"},
      {Reader::kHetero,
       "[cluster]\nt_ref_ms = 500\nmax_servers = 16\n[class a]\ncount = 2\n",
       "config line 3: unknown key 'max_servers' in [cluster]"},
      {Reader::kHetero, "[class a]\ncount = 2\nmu_max = 12\nspeed = 1\n",
       "config line 4: unknown key 'speed' in [class a]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    std::string error = "read without an error";
    try {
      const IniFile ini = IniFile::parse(c.text);
      if (c.reader == Reader::kCluster) {
        (void)cluster_config_from_ini(ini);
      } else {
        (void)hetero_config_from_ini(ini);
      }
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_EQ(error, c.error);
  }
}

}  // namespace
}  // namespace gc
