#include <gtest/gtest.h>

#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "sim/simulator.h"

namespace deepserve::distflow {
namespace {

class TransferEngineTest : public ::testing::Test {
 protected:
  TransferEngineTest() : cluster_(&sim_, MakeConfig()), engine_(&sim_, &cluster_, {}) {
    // Endpoint 0 -> NPU 0 (machine 0), 1 -> NPU 8 (machine 1, same domain),
    // 2 -> NPU 40 (machine 5, other scale-up domain).
    EXPECT_TRUE(engine_.RegisterEndpoint(0, 0).ok());
    EXPECT_TRUE(engine_.RegisterEndpoint(1, 8).ok());
    EXPECT_TRUE(engine_.RegisterEndpoint(2, 40).ok());
  }
  static hw::ClusterConfig MakeConfig() {
    hw::ClusterConfig config;
    config.num_machines = 8;
    config.machines_per_scaleup_domain = 4;
    return config;
  }
  MemRegion Region(EndpointId ep, rtc::Tier tier, Bytes len) {
    return MemRegion{ep, tier, 0, len};
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  TransferEngine engine_;
};

TEST_F(TransferEngineTest, RegisterRejectsDuplicatesAndBadNpus) {
  EXPECT_FALSE(engine_.RegisterEndpoint(0, 1).ok());
  EXPECT_FALSE(engine_.RegisterEndpoint(9, 9999).ok());
  EXPECT_FALSE(engine_.RegisterEndpoint(kInvalidEndpoint, 0).ok());
}

TEST_F(TransferEngineTest, TransferRequiresLink) {
  Status s = engine_.Transfer(Region(0, rtc::Tier::kNpu, 100), Region(1, rtc::Tier::kNpu, 100),
                              nullptr);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.stats().rejected, 1);
}

TEST_F(TransferEngineTest, LinkClusterEnablesTransfers) {
  bool ready = false;
  ASSERT_TRUE(engine_.LinkCluster({0, 1, 2}, [&] { ready = true; }).ok());
  sim_.Run();
  EXPECT_TRUE(ready);
  EXPECT_TRUE(engine_.Linked(0, 1));
  EXPECT_TRUE(engine_.Linked(1, 2));
  bool done = false;
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kNpu, GiB(1)),
                               Region(1, rtc::Tier::kNpu, GiB(1)), [&] { done = true; })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine_.stats().transfers, 1);
}

TEST_F(TransferEngineTest, LinkClusterRejectsUnknownEndpoint) {
  EXPECT_FALSE(engine_.LinkCluster({0, 42}, nullptr).ok());
}

TEST_F(TransferEngineTest, SelfLinkImplicit) {
  EXPECT_TRUE(engine_.Linked(0, 0));
}

TEST_F(TransferEngineTest, SameDomainUsesHccsSpeed) {
  ASSERT_TRUE(engine_.LinkCluster({0, 1, 2}, nullptr).ok());
  TimeNs near_done = 0;
  TimeNs far_done = 0;
  engine_.Transfer(Region(0, rtc::Tier::kNpu, GiB(8)), Region(1, rtc::Tier::kNpu, GiB(8)),
                   [&] { near_done = sim_.Now(); })
      .ok();
  sim_.Run();
  TimeNs start = sim_.Now();
  engine_.Transfer(Region(0, rtc::Tier::kNpu, GiB(8)), Region(2, rtc::Tier::kNpu, GiB(8)),
                   [&] { far_done = sim_.Now(); })
      .ok();
  sim_.Run();
  // RoCE (20 GB/s) vs HCCS (90 GB/s): cross-domain is ~4.5x slower.
  EXPECT_GT((far_done - start), 3 * near_done);
}

TEST_F(TransferEngineTest, DramToNpuRidesPcie) {
  bool done = false;
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kDram, GiB(16)),
                               Region(0, rtc::Tier::kNpu, GiB(16)), [&] { done = true; })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  // 16 GiB at 32 GB/s PCIe ≈ 0.54 s.
  EXPECT_NEAR(NsToS(sim_.Now()), 0.537, 0.05);
}

TEST_F(TransferEngineTest, SsdToNpuIsTwoHops) {
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kSsd, GiB(3)),
                               Region(0, rtc::Tier::kNpu, GiB(3)), nullptr)
                  .ok());
  sim_.Run();
  EXPECT_EQ(engine_.stats().multi_hop_transfers, 1);
  // SSD hop (3 GB/s) dominates: ~1.07 s + PCIe hop ~0.1 s.
  EXPECT_GT(NsToS(sim_.Now()), 1.0);
}

TEST_F(TransferEngineTest, SameTierSameDeviceIsOverheadOnly) {
  TimeNs done = -1;
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kDram, GiB(4)),
                               Region(0, rtc::Tier::kDram, GiB(4)),
                               [&] { done = sim_.Now(); })
                  .ok());
  sim_.Run();
  EXPECT_EQ(done, engine_.config().per_op_overhead);
}

TEST_F(TransferEngineTest, TransfersBytesMinOfRegions) {
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kDram, GiB(4)),
                               Region(0, rtc::Tier::kNpu, GiB(1)), nullptr)
                  .ok());
  sim_.Run();
  EXPECT_EQ(engine_.stats().bytes_moved, GiB(1));
}

TEST_F(TransferEngineTest, WorkerShardingSerializesPerPair) {
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine_
                    .Transfer(Region(0, rtc::Tier::kDram, 1), Region(0, rtc::Tier::kDram, 1),
                              [&] { ++completed; })
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(completed, 10);
  // Ten ops on one endpoint pair share one worker shard, one after another.
  EXPECT_GE(sim_.Now(), 10 * engine_.config().per_op_overhead);
}

TEST_F(TransferEngineTest, DistinctPairsDoNotQueueBehindEachOther) {
  ASSERT_TRUE(engine_.LinkCluster({0, 1}, nullptr).ok());
  // 0 -> 1 and 1 -> 0 hash to different worker shards; two ops on 0 -> 1
  // share one. Each op moves one byte over HCCS, so its submission cost
  // decides when it lands.
  std::vector<TimeNs> done;
  auto send = [&](EndpointId src, EndpointId dst) {
    ASSERT_TRUE(engine_
                    .Transfer(Region(src, rtc::Tier::kNpu, 1), Region(dst, rtc::Tier::kNpu, 1),
                              [&] { done.push_back(sim_.Now()); })
                    .ok());
  };
  send(0, 1);
  send(1, 0);
  send(0, 1);
  sim_.Run();
  ASSERT_EQ(done.size(), 3u);
  const DurationNs overhead = engine_.config().per_op_overhead;
  EXPECT_LT(done[1] - done[0], overhead) << "distinct pairs run side by side";
  EXPECT_GE(done[2] - done[0], overhead) << "one pair's ops queue on its shard";
}

}  // namespace
}  // namespace deepserve::distflow
