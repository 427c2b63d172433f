#include "src/os/platform.hpp"

#include <gtest/gtest.h>

#include <array>

namespace lore::os {
namespace {

Platform two_core_platform() {
  return Platform({make_big_core(), make_little_core()});
}

TEST(Platform, ConstructionDefaults) {
  const auto p = two_core_platform();
  EXPECT_EQ(p.num_cores(), 2u);
  EXPECT_EQ(p.ladder().size(), 5u);
  EXPECT_DOUBLE_EQ(p.core(0).temperature_k, p.config().ambient_k);
  EXPECT_DOUBLE_EQ(p.max_freq_ghz(), 2.0);
}

TEST(Platform, PowerGrowsWithVfAndUtilization) {
  auto p = two_core_platform();
  p.set_vf(0, 0);
  const double low = p.core_power_w(0, 0.5);
  p.set_vf(0, 4);
  const double high = p.core_power_w(0, 0.5);
  EXPECT_GT(high, low);
  EXPECT_GT(p.core_power_w(0, 1.0), p.core_power_w(0, 0.1));
}

TEST(Platform, PowerStatesOrdered) {
  auto p = two_core_platform();
  p.set_vf(0, 2);
  const double active = p.core_power_w(0, 0.8);
  p.set_power_state(0, PowerState::kIdle);
  const double idle = p.core_power_w(0, 0.8);
  p.set_power_state(0, PowerState::kSleep);
  const double sleep = p.core_power_w(0, 0.8);
  p.set_power_state(0, PowerState::kOff);
  const double off = p.core_power_w(0, 0.8);
  EXPECT_GT(active, idle);
  EXPECT_GT(idle, sleep);
  EXPECT_GT(sleep, off);
  EXPECT_DOUBLE_EQ(off, 0.0);
}

TEST(Platform, ThermalHeatingAndCooling) {
  auto p = two_core_platform();
  p.set_vf(0, 4);
  for (int i = 0; i < 200; ++i) p.step(0.01, std::array{1.0, 0.0});
  const double hot = p.core(0).temperature_k;
  EXPECT_GT(hot, p.config().ambient_k + 5.0);
  // Cooling back down when idle.
  for (int i = 0; i < 400; ++i) p.step(0.01, std::array{0.0, 0.0});
  EXPECT_LT(p.core(0).temperature_k, hot);
  EXPECT_DOUBLE_EQ(p.core(0).peak_temperature_k, hot);
}

TEST(Platform, NeighbourCouplingWarmsIdleCore) {
  auto p = two_core_platform();
  p.set_vf(0, 4);
  for (int i = 0; i < 300; ++i) p.step(0.01, std::array{1.0, 0.0});
  // Core 1 idles but sits next to the hot core 0.
  EXPECT_GT(p.core(1).temperature_k, p.config().ambient_k + 0.5);
}

TEST(Platform, CapacityReflectsTypeAndState) {
  auto p = two_core_platform();
  p.set_vf(0, 4);
  p.set_vf(1, 4);
  EXPECT_GT(p.capacity_gops(0), p.capacity_gops(1));  // big vs little
  p.set_power_state(0, PowerState::kSleep);
  EXPECT_DOUBLE_EQ(p.capacity_gops(0), 0.0);
}

TEST(Platform, EnergyAccumulatesOverSteps) {
  auto p = two_core_platform();
  const double e1 = p.step(0.01, std::array{1.0, 1.0});
  EXPECT_GT(e1, 0.0);
  const double e2 = p.step(1.0, std::array{1.0, 1.0});
  EXPECT_GT(e2, e1);
}

}  // namespace
}  // namespace lore::os
