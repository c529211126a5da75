#include "core/param.h"

#include <gtest/gtest.h>

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
  p = Param{};
  p.interaction_radius_margin = -1.0;
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
