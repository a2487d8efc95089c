#include "queueing/mm1.h"
#include "queueing/mmc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "support/mg1.h"
#include "support/queueing.h"

namespace gc {
namespace {

// -- M/M/1 --------------------------------------------------------------------

TEST(Mm1, ClassicNumbers) {
  // lambda=8, mu=10: rho=0.8, T=1/2=0.5, L=4, W=0.4.
  EXPECT_DOUBLE_EQ(mm1::utilization(8.0, 10.0), 0.8);
  EXPECT_DOUBLE_EQ(mm1::mean_response_time(8.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(mm1::mean_number_in_system(8.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(mm1::mean_waiting_time(8.0, 10.0), 0.4);
}

TEST(Mm1, LittlesLawHolds) {
  for (double rho : {0.1, 0.5, 0.9, 0.99}) {
    const double mu = 10.0;
    const double lambda = rho * mu;
    EXPECT_NEAR(mm1::mean_number_in_system(lambda, mu),
                lambda * mm1::mean_response_time(lambda, mu), 1e-9);
  }
}

TEST(Mm1, StabilityCheck) {
  EXPECT_TRUE(mm1::stable(5.0, 10.0));
  EXPECT_FALSE(mm1::stable(10.0, 10.0));
  EXPECT_FALSE(mm1::stable(11.0, 10.0));
  EXPECT_FALSE(mm1::stable(1.0, 0.0));
}

TEST(Mm1, UnstableThrows) {
  EXPECT_THROW((void)mm1::mean_response_time(10.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)mm1::mean_number_in_system(-1.0, 10.0), std::invalid_argument);
}

TEST(Mm1, ResponseTimeTailIsExponential) {
  const double lambda = 5.0, mu = 10.0;
  EXPECT_DOUBLE_EQ(mm1::response_time_tail(lambda, mu, 0.0), 1.0);
  EXPECT_NEAR(mm1::response_time_tail(lambda, mu, 0.2), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(mm1::response_time_tail(lambda, mu, -1.0), 1.0);
}

TEST(Mm1, QuantileInvertsTail) {
  const double lambda = 5.0, mu = 10.0;
  const double q95 = mm1::response_time_quantile(lambda, mu, 0.95);
  EXPECT_NEAR(mm1::response_time_tail(lambda, mu, q95), 0.05, 1e-12);
  EXPECT_THROW((void)mm1::response_time_quantile(lambda, mu, 1.0), std::invalid_argument);
}

TEST(Mm1, RequiredServiceRateInverts) {
  const double mu = mm1::required_service_rate(8.0, 0.5);
  EXPECT_DOUBLE_EQ(mu, 10.0);
  EXPECT_NEAR(mm1::mean_response_time(8.0, mu), 0.5, 1e-12);
  EXPECT_THROW((void)mm1::required_service_rate(1.0, 0.0), std::invalid_argument);
}

// -- M/M/c --------------------------------------------------------------------

TEST(Mmc, SingleServerReducesToMm1) {
  const double lambda = 7.0, mu = 10.0;
  EXPECT_NEAR(mmc::mean_response_time(lambda, mu, 1),
              mm1::mean_response_time(lambda, mu), 1e-9);
  EXPECT_NEAR(mmc::erlang_c(lambda, mu, 1), 0.7, 1e-9);  // C(1,a) = rho
}

TEST(Mmc, ErlangCKnownValue) {
  // a = 2 Erlang offered to c = 3 servers: Erlang-C = 4/9 (textbook).
  EXPECT_NEAR(mmc::erlang_c(2.0, 1.0, 3), 4.0 / 9.0, 1e-9);
}

TEST(Mmc, WaitVanishesWithManyServers) {
  const double lambda = 10.0, mu = 1.0;
  EXPECT_GT(mmc::mean_waiting_time(lambda, mu, 11), mmc::mean_waiting_time(lambda, mu, 20));
  EXPECT_LT(mmc::mean_waiting_time(lambda, mu, 40), 1e-6);
  EXPECT_NEAR(mmc::mean_response_time(lambda, mu, 40), 1.0 / mu, 1e-6);
}

TEST(Mmc, Stability) {
  EXPECT_TRUE(mmc::stable(9.9, 1.0, 10));
  EXPECT_FALSE(mmc::stable(10.0, 1.0, 10));
  EXPECT_FALSE(mmc::stable(1.0, 1.0, 0));
}

TEST(Mmc, UnstableThrows) {
  EXPECT_THROW((void)mmc::erlang_c(10.0, 1.0, 10), std::invalid_argument);
}

TEST(Mmc, LittlesLaw) {
  EXPECT_NEAR(mmc::mean_number_in_system(5.0, 1.0, 8),
              5.0 * mmc::mean_response_time(5.0, 1.0, 8), 1e-9);
}

TEST(Mmc, MinServersForResponseTime) {
  // lambda=10, mu=1: need c >= 11 for stability; tight t_ref needs more.
  const unsigned c = mmc::min_servers_for_response_time(10.0, 1.0, 1.05, 100);
  EXPECT_GE(c, 11u);
  EXPECT_LE(mmc::mean_response_time(10.0, 1.0, c), 1.05);
  if (c > 11) {
    EXPECT_GT(mmc::mean_response_time(10.0, 1.0, c - 1), 1.05);
  }
}

TEST(Mmc, MinServersImpossibleReturnsZero) {
  // t_ref below the bare service time is unattainable.
  EXPECT_EQ(mmc::min_servers_for_response_time(1.0, 1.0, 0.5, 100), 0u);
}

// -- M/G/1 --------------------------------------------------------------------

TEST(Mg1, Scv1ReducesToMm1) {
  const double lambda = 6.0, mu = 10.0;
  EXPECT_NEAR(mg1::mean_response_time(lambda, 1.0 / mu, 1.0),
              mm1::mean_response_time(lambda, mu), 1e-9);
}

TEST(Mg1, DeterministicHalvesWaiting) {
  const double lambda = 6.0, es = 0.1;
  EXPECT_NEAR(mg1::mean_waiting_time(lambda, es, 0.0),
              0.5 * mg1::mean_waiting_time(lambda, es, 1.0), 1e-12);
}

TEST(Mg1, HeavyTailInflatesWaiting) {
  const double lambda = 6.0, es = 0.1;
  EXPECT_GT(mg1::mean_waiting_time(lambda, es, 10.0),
            mg1::mean_waiting_time(lambda, es, 1.0));
}

TEST(Mg1, UnstableThrows) {
  EXPECT_THROW((void)mg1::mean_waiting_time(10.0, 0.1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)mg1::mean_waiting_time(1.0, 0.1, -1.0), std::invalid_argument);
}

TEST(Mg1, LittlesLaw) {
  EXPECT_NEAR(mg1::mean_number_in_system(5.0, 0.1, 2.0),
              5.0 * mg1::mean_response_time(5.0, 0.1, 2.0), 1e-12);
}

}  // namespace
}  // namespace gc
