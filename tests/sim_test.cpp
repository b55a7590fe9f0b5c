#include <gtest/gtest.h>

#include "sim/world.hpp"

namespace torsim::sim {
namespace {

WorldConfig small_config(std::uint64_t seed = 1) {
  WorldConfig config;
  config.seed = seed;
  config.honest_relays = 120;
  return config;
}

TEST(WorldTest, BootstrapProducesFlaggedConsensus) {
  World world(small_config());
  const auto& consensus = world.consensus();
  EXPECT_GT(consensus.size(), 100u);  // most relays online & unique IPs
  EXPECT_GT(consensus.hsdir_count(), 40u);
  EXPECT_FALSE(consensus.guard_entries().empty());
  EXPECT_EQ(world.now(), default_start_time());
}

TEST(WorldTest, DeterministicAcrossRuns) {
  World a(small_config(77));
  World b(small_config(77));
  a.run_hours(5);
  b.run_hours(5);
  ASSERT_EQ(a.consensus().size(), b.consensus().size());
  for (std::size_t i = 0; i < a.consensus().size(); ++i)
    EXPECT_EQ(a.consensus().entries()[i].fingerprint,
              b.consensus().entries()[i].fingerprint);
}

TEST(WorldTest, StepAdvancesClockAndArchives) {
  World world(small_config());
  const auto t0 = world.now();
  world.run_hours(3);
  EXPECT_EQ(world.now(), t0 + 3 * util::kSecondsPerHour);
  EXPECT_EQ(world.archive().size(), 4u);  // bootstrap + 3 steps
}

TEST(WorldTest, ArchiveRecordingCanBeDisabled) {
  auto config = small_config();
  config.record_archive = false;
  World world(config);
  world.run_hours(3);
  EXPECT_TRUE(world.archive().empty());
}

TEST(WorldTest, ChurnTogglesRelays) {
  auto config = small_config(3);
  config.hourly_down_probability = 0.5;
  World world(config);
  const auto before = world.registry().online_ids().size();
  world.step_hour();
  const auto after = world.registry().online_ids().size();
  EXPECT_LT(after, before);  // with p=0.5, ~half go down
}

TEST(WorldTest, ChurnExemptRelayStaysUp) {
  auto config = small_config(4);
  config.hourly_down_probability = 1.0;  // everything dies...
  World world(config);
  world.set_churn_exempt(0, true);       // ...except relay 0
  EXPECT_TRUE(world.churn_exempt(0));
  world.step_hour();
  EXPECT_TRUE(world.registry().get(0).online());
  std::size_t online = world.registry().online_ids().size();
  EXPECT_EQ(online, 1u);
  EXPECT_THROW(world.set_churn_exempt(99999, true), std::out_of_range);
}

TEST(WorldTest, AddServicePublishesImmediately) {
  World world(small_config(5));
  const auto index = world.add_service();
  const auto& host = world.service(index);
  // The descriptor is fetchable right away.
  const auto ids = host.current_descriptor_ids(world.now());
  relay::RelayId hsdir;
  const auto d = world.directories().fetch_from(world.consensus(), ids[0],
                                                world.now(), hsdir);
  EXPECT_TRUE(d.has_value());
  EXPECT_EQ(world.service_count(), 1u);
}

TEST(WorldTest, ServiceStaysReachableAcrossDays) {
  World world(small_config(6));
  const auto index = world.add_service();
  world.run_hours(48);
  const auto& host = world.service(index);
  const auto ids = host.current_descriptor_ids(world.now());
  relay::RelayId hsdir;
  const auto d = world.directories().fetch_from(world.consensus(), ids[0],
                                                world.now(), hsdir);
  EXPECT_TRUE(d.has_value());
}

TEST(WorldTest, PostConsensusHookRuns) {
  World world(small_config(8));
  int calls = 0;
  world.set_post_consensus_hook([&](World&) { ++calls; });
  world.run_hours(2);
  EXPECT_EQ(calls, 2);
}

TEST(WorldTest, PinnedServiceKeyIsUsed) {
  World world(small_config(9));
  util::Rng rng(55);
  auto key = crypto::KeyPair::generate(rng);
  const auto expected_onion = crypto::onion_address(
      crypto::permanent_id_from_fingerprint(key.fingerprint()));
  const auto index = world.add_service(std::move(key));
  EXPECT_EQ(world.service(index).onion_address(), expected_onion);
}

}  // namespace
}  // namespace torsim::sim
