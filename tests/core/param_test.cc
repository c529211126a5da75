#include "core/param.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/simulation.h"

namespace biosim {
namespace {

TEST(ParamTest, DefaultsAreValid) {
  Param p;
  EXPECT_NO_THROW(p.Validate());
}

TEST(ParamTest, RejectsInvertedBounds) {
  Param p;
  p.min_bound = 10.0;
  p.max_bound = 10.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p.max_bound = 5.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, RejectsNonPositiveTimestep) {
  Param p;
  p.simulation_time_step = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p.simulation_time_step = -0.01;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, RejectsNegativePhysicsCoefficients) {
  Param p;
  p.repulsion_coefficient = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.attraction_coefficient = -0.5;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.simulation_max_displacement = -3.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.default_adherence = -0.1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.default_density = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, RejectsNaNInEveryFloatingField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double Param::*field :
       {&Param::min_bound, &Param::max_bound, &Param::simulation_time_step,
        &Param::simulation_max_displacement, &Param::repulsion_coefficient,
        &Param::attraction_coefficient, &Param::default_adherence,
        &Param::default_density}) {
    Param p;
    p.*field = nan;
    EXPECT_THROW(p.Validate(), std::invalid_argument);
  }
}

TEST(ParamTest, RejectsNonFiniteBoundsAndTimestep) {
  const double inf = std::numeric_limits<double>::infinity();
  Param p;
  p.max_bound = inf;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.min_bound = -inf;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  // Finite bounds whose span overflows a double.
  p.min_bound = -1e308;
  p.max_bound = 1e308;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = Param{};
  p.simulation_time_step = inf;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ParamTest, ZeroMaxDisplacementIsValidBenchmarkBMode) {
  Param p;
  p.simulation_max_displacement = 0.0;
  EXPECT_NO_THROW(p.Validate());
}

TEST(ParamTest, SimulationConstructorValidates) {
  Param bad;
  bad.simulation_time_step = -1.0;
  EXPECT_THROW(Simulation sim(bad), std::invalid_argument);
}

}  // namespace
}  // namespace biosim
