#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
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

TEST_F(TransferEngineTest, SameTierSameDeviceIsOverheadOnly) {
  TimeNs done = -1;
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kDram, GiB(4)),
                               Region(0, rtc::Tier::kDram, GiB(4)),
                               [&] { done = sim_.Now(); })
                  .ok());
  sim_.Run();
  EXPECT_EQ(done, engine_.config().per_op_overhead);
}

TEST_F(TransferEngineTest, SameDeviceMoveTakesAnEmptyCallback) {
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kDram, GiB(1)),
                               Region(0, rtc::Tier::kDram, GiB(1)), nullptr)
                  .ok());
  sim_.Run();
  EXPECT_EQ(engine_.stats().transfers, 1);
}

TEST_F(TransferEngineTest, NpuToDramRidesThatNpusPcieLink) {
  // Endpoint 3 sits on NPU 5 of machine 0, behind the PCIe link NPUs 4-5 share.
  ASSERT_TRUE(engine_.RegisterEndpoint(3, 5).ok());
  hw::Machine* machine = cluster_.machine(0);
  hw::SharedLink* pcie = machine->pcie_link_for(5);
  TimeNs done = -1;
  ASSERT_TRUE(engine_.Transfer(Region(3, rtc::Tier::kNpu, GiB(2)),
                               Region(3, rtc::Tier::kDram, GiB(2)), [&] { done = sim_.Now(); })
                  .ok());
  sim_.Run();
  for (int local = 0; local < cluster_.config().npus_per_machine; local += 2) {
    hw::SharedLink* link = machine->pcie_link_for(local);
    EXPECT_EQ(link->total_bytes_transferred(), link == pcie ? GiB(2) : 0) << link->name();
  }
  EXPECT_EQ(cluster_.hccs_link(0)->total_bytes_transferred(), 0);
  EXPECT_EQ(machine->ssd_link()->total_bytes_transferred(), 0);
  // One flow: the worker's submission cost, then the PCIe link alone.
  EXPECT_NEAR(static_cast<double>(done),
              static_cast<double>(engine_.config().per_op_overhead +
                                  pcie->IsolatedDuration(GiB(2))),
              2.0);
}

TEST_F(TransferEngineTest, CrossDomainNpuToNpuRidesTheSourcesRoce) {
  ASSERT_TRUE(engine_.LinkCluster({0, 2}, nullptr).ok());
  ASSERT_TRUE(engine_.Transfer(Region(0, rtc::Tier::kNpu, GiB(1)),
                               Region(2, rtc::Tier::kNpu, GiB(1)), nullptr)
                  .ok());
  sim_.Run();
  hw::SharedLink* link = cluster_.InterNpuLink(0, 40);
  EXPECT_EQ(link->type(), hw::LinkType::kRoce);
  EXPECT_EQ(link->total_bytes_transferred(), GiB(1));
  EXPECT_EQ(cluster_.hccs_link(0)->total_bytes_transferred(), 0);
  EXPECT_EQ(cluster_.machine(0)->pcie_link_for(0)->total_bytes_transferred(), 0);
  EXPECT_EQ(cluster_.machine(5)->pcie_link_for(0)->total_bytes_transferred(), 0);
}

TEST(TransferEngineSuperPodTest, CrossDomainNpuToNpuRidesTheSourcesUb) {
  sim::Simulator sim;
  hw::ClusterConfig config;
  config.num_machines = 8;
  config.machines_per_scaleup_domain = 4;
  config.enable_superpod = true;
  hw::Cluster cluster(&sim, config);
  TransferEngine engine(&sim, &cluster, {});
  ASSERT_TRUE(engine.RegisterEndpoint(0, 0).ok());
  ASSERT_TRUE(engine.RegisterEndpoint(2, 40).ok());
  ASSERT_TRUE(engine.LinkCluster({0, 2}, nullptr).ok());
  ASSERT_TRUE(engine.Transfer(MemRegion{0, rtc::Tier::kNpu, 0, GiB(1)},
                              MemRegion{2, rtc::Tier::kNpu, 0, GiB(1)}, nullptr)
                  .ok());
  sim.Run();
  hw::SharedLink* ub = cluster.ub_link(0);
  ASSERT_NE(ub, nullptr);
  EXPECT_EQ(cluster.InterNpuLink(0, 40), ub);
  EXPECT_EQ(ub->total_bytes_transferred(), GiB(1));
  EXPECT_EQ(cluster.LinkOfType(0, hw::LinkType::kRoce)->total_bytes_transferred(), 0);
  EXPECT_EQ(cluster.hccs_link(0)->total_bytes_transferred(), 0);
}

// A populate moves its blocks from DRAM to the NPU in one DistFlow transfer,
// wired the way a TE wires its RTC.
TEST_F(TransferEngineTest, PopulateIsOneTransfer) {
  rtc::RtcConfig config;
  config.pool.npu_capacity = 8;
  config.pool.dram_capacity = 16;
  config.bytes_per_block = MiB(64);
  rtc::RtcMaster rtc(&sim_, config);
  rtc.SetTransferFn([this](rtc::Tier src, rtc::Tier dst, Bytes bytes,
                           std::function<void()> done) {
    ASSERT_TRUE(engine_.Transfer(Region(0, src, bytes), Region(0, dst, bytes), std::move(done))
                    .ok());
  });
  std::vector<TokenId> tokens(4 * rtc::kBlockTokens);
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<TokenId>(100 + i);
  }
  rtc::BlockTable blocks = rtc.AllocBlocks(4).value();
  rtc.Preserve(tokens, blocks, rtc::KeyChain::Hash(tokens));
  rtc.Copy(blocks, rtc::Tier::kDram, nullptr);
  sim_.Run();
  rtc.Free(blocks);
  ASSERT_TRUE(rtc.EnsureNpuFree(8).ok());  // drops the NPU copies, keeps DRAM
  rtc::MatchInfo info = rtc.MatchByPrefixToken(tokens, rtc::TokensToBlockKeys(tokens));
  ASSERT_EQ(info.offnpu_tokens, 4 * rtc::kBlockTokens);
  rtc.Acquire(info.blocks);

  const DistFlowStats before = engine_.stats();
  const TimeNs start = sim_.Now();
  auto ticket = rtc.Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(engine_.stats().transfers, before.transfers + 1);
  EXPECT_EQ(engine_.stats().bytes_moved, before.bytes_moved + 4 * config.bytes_per_block);
  int fired = 0;
  rtc.OnPopulateReady(*ticket, [&] { ++fired; });
  while (rtc.QueryPopulate(*ticket) == rtc::PopulateState::kInFlight) {
    EXPECT_EQ(fired, 0);
    ASSERT_TRUE(sim_.Step());
  }
  EXPECT_EQ(fired, 1);
  hw::SharedLink* pcie = cluster_.machine(0)->pcie_link_for(0);
  EXPECT_NEAR(static_cast<double>(sim_.Now() - start),
              static_cast<double>(engine_.config().per_op_overhead +
                                  pcie->IsolatedDuration(4 * config.bytes_per_block)),
              2.0);
  sim_.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rtc.QueryPopulate(*ticket), rtc::PopulateState::kReady);
  EXPECT_EQ(engine_.stats().transfers, before.transfers + 1);
  rtc.Free(info.blocks);
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
