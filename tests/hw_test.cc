#include <gtest/gtest.h>

#include "common/time_units.h"
#include "common/types.h"
#include "hw/cluster.h"
#include "hw/hccl.h"
#include "hw/link.h"
#include "hw/npu.h"
#include "sim/simulator.h"

namespace deepserve::hw {
namespace {

TEST(NpuTest, HbmAccounting) {
  Npu npu(0, 0, NpuSpec::Gen2());
  EXPECT_EQ(npu.hbm_used(), 0u);
  ASSERT_TRUE(npu.AllocateHbm(GiB(10)).ok());
  EXPECT_EQ(npu.hbm_used(), GiB(10));
  EXPECT_EQ(npu.hbm_free(), npu.hbm_capacity() - GiB(10));
  npu.FreeHbm(GiB(10));
  EXPECT_EQ(npu.hbm_used(), 0u);
}

TEST(NpuTest, AllocationFailsWhenExhausted) {
  Npu npu(0, 0, NpuSpec::Gen1());  // 32 GiB
  ASSERT_TRUE(npu.AllocateHbm(GiB(30)).ok());
  Status s = npu.AllocateHbm(GiB(4));
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Failed allocation must not leak accounting.
  EXPECT_EQ(npu.hbm_used(), GiB(30));
}

TEST(NpuSpecTest, GenerationsMatchPaperRanges) {
  NpuSpec gen1 = NpuSpec::Gen1();
  NpuSpec gen2 = NpuSpec::Gen2();
  // "between 280 and 400 TFlops ... 32 to 64 GB" (§2).
  EXPECT_GE(gen1.tflops_fp16, 280.0);
  EXPECT_LE(gen2.tflops_fp16, 400.0);
  EXPECT_EQ(gen1.hbm_capacity, GiB(32));
  EXPECT_EQ(gen2.hbm_capacity, GiB(64));
}

class SharedLinkTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(SharedLinkTest, SingleFlowTakesBytesOverBandwidthPlusLatency) {
  SharedLink link(&sim_, "l", LinkType::kPcie, 1e9 /* 1 GB/s */, UsToNs(100));
  TimeNs done = -1;
  link.StartFlow(500'000'000, [&] { done = sim_.Now(); });
  sim_.Run();
  // 0.5 GB at 1 GB/s = 0.5 s (+100 us latency).
  EXPECT_NEAR(NsToS(done), 0.5 + 100e-6, 1e-3);
}

TEST_F(SharedLinkTest, IsolatedDurationMatchesSingleFlow) {
  SharedLink link(&sim_, "l", LinkType::kHccs, 2e9, UsToNs(10));
  TimeNs done = -1;
  link.StartFlow(1'000'000'000, [&] { done = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(link.IsolatedDuration(1'000'000'000)),
              static_cast<double>(MsToNs(1)));
}

TEST_F(SharedLinkTest, TwoConcurrentFlowsShareBandwidth) {
  SharedLink link(&sim_, "l", LinkType::kPcie, 1e9, 0);
  TimeNs done_a = -1;
  TimeNs done_b = -1;
  link.StartFlow(1'000'000'000, [&] { done_a = sim_.Now(); });
  link.StartFlow(1'000'000'000, [&] { done_b = sim_.Now(); });
  sim_.Run();
  // Both 1 GB flows at a shared 1 GB/s finish together at ~2 s.
  EXPECT_NEAR(NsToS(done_a), 2.0, 0.01);
  EXPECT_NEAR(NsToS(done_b), 2.0, 0.01);
}

TEST_F(SharedLinkTest, LateFlowDelaysEarlyFlowProportionally) {
  SharedLink link(&sim_, "l", LinkType::kPcie, 1e9, 0);
  TimeNs done_a = -1;
  TimeNs done_b = -1;
  link.StartFlow(1'000'000'000, [&] { done_a = sim_.Now(); });
  // Second flow starts at t=0.5s when A is half done.
  sim_.ScheduleAt(SToNs(0.5), [&] {
    link.StartFlow(1'000'000'000, [&] { done_b = sim_.Now(); });
  });
  sim_.Run();
  // A: 0.5 GB alone (0.5 s) + 0.5 GB shared (1.0 s) => 1.5 s total.
  EXPECT_NEAR(NsToS(done_a), 1.5, 0.01);
  // B: shares until 1.5 s (transfers 0.5), then alone for 0.5 => 2.0 s.
  EXPECT_NEAR(NsToS(done_b), 2.0, 0.01);
}

TEST_F(SharedLinkTest, BandwidthScaleSlowsTransfers) {
  SharedLink link(&sim_, "l", LinkType::kHccs, 1e9, 0);
  link.SetBandwidthScale(0.5);
  TimeNs done = -1;
  link.StartFlow(1'000'000'000, [&] { done = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(NsToS(done), 2.0, 0.01);
}

TEST_F(SharedLinkTest, ZeroByteFlowCompletesAfterLatency) {
  SharedLink link(&sim_, "l", LinkType::kRoce, 1e9, UsToNs(25));
  TimeNs done = -1;
  link.StartFlow(0, [&] { done = sim_.Now(); });
  sim_.Run();
  EXPECT_EQ(done, UsToNs(25));
}

TEST_F(SharedLinkTest, TracksTotalBytes) {
  SharedLink link(&sim_, "l", LinkType::kPcie, 1e9, 0);
  link.StartFlow(100, [] {});
  link.StartFlow(200, [] {});
  sim_.Run();
  EXPECT_EQ(link.total_bytes_transferred(), 300u);
}

TEST_F(SharedLinkTest, ManyFlowsAllComplete) {
  SharedLink link(&sim_, "l", LinkType::kPcie, 1e9, 0);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    link.StartFlow(1'000'000, [&] { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(PageCacheTest, InsertAndLookup) {
  PageCache cache(GiB(10));
  EXPECT_TRUE(cache.Insert("llama3-8b", GiB(4), 0));
  EXPECT_TRUE(cache.Contains("llama3-8b"));
  EXPECT_EQ(cache.used(), GiB(4));
}

TEST(PageCacheTest, RejectsObjectLargerThanCapacity) {
  PageCache cache(GiB(1));
  EXPECT_FALSE(cache.Insert("llama3-70b", GiB(140), 0));
  EXPECT_EQ(cache.used(), 0u);
}

TEST(PageCacheTest, EvictsLruToFit) {
  PageCache cache(GiB(10));
  EXPECT_TRUE(cache.Insert("a", GiB(4), 0));
  EXPECT_TRUE(cache.Insert("b", GiB(4), 1));
  cache.Touch("a", 2);  // a becomes most recent
  EXPECT_TRUE(cache.Insert("c", GiB(4), 3));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));  // LRU evicted
  EXPECT_TRUE(cache.Contains("c"));
}

TEST(PageCacheTest, EraseReleasesSpace) {
  PageCache cache(GiB(8));
  cache.Insert("a", GiB(8), 0);
  cache.Erase("a");
  EXPECT_EQ(cache.used(), 0u);
  EXPECT_TRUE(cache.Insert("b", GiB(8), 1));
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : cluster_(&sim_, MakeConfig()) {}
  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.num_machines = 8;
    config.machines_per_scaleup_domain = 4;
    return config;
  }
  sim::Simulator sim_;
  Cluster cluster_;
};

TEST_F(ClusterTest, GlobalNpuIdsMapToMachines) {
  EXPECT_EQ(cluster_.total_npus(), 64);
  EXPECT_EQ(cluster_.machine_of(0), 0);
  EXPECT_EQ(cluster_.machine_of(7), 0);
  EXPECT_EQ(cluster_.machine_of(8), 1);
  EXPECT_EQ(cluster_.machine_of(63), 7);
  EXPECT_EQ(cluster_.npu(13)->id(), 13);
  EXPECT_EQ(cluster_.npu(13)->machine(), 1);
}

TEST_F(ClusterTest, ScaleUpDomainMembership) {
  // Machines 0-3 are one domain; 4-7 another.
  EXPECT_TRUE(cluster_.SameScaleUpDomain(0, 8 * 3));
  EXPECT_FALSE(cluster_.SameScaleUpDomain(0, 8 * 4));
}

TEST_F(ClusterTest, InterNpuLinkChoosesFabric) {
  EXPECT_EQ(cluster_.InterNpuLink(0, 8)->type(), LinkType::kHccs);
  EXPECT_EQ(cluster_.InterNpuLink(0, 8 * 5)->type(), LinkType::kRoce);
}

TEST_F(ClusterTest, PcieLinksSharedBetweenNpuPairs) {
  Machine* m = cluster_.machine(0);
  EXPECT_EQ(m->pcie_link_for(0), m->pcie_link_for(1));
  EXPECT_NE(m->pcie_link_for(0), m->pcie_link_for(2));
}

TEST_F(ClusterTest, HccsFasterThanRoce) {
  EXPECT_GT(cluster_.hccs_link(0)->bandwidth_bps(), cluster_.roce_link(0)->bandwidth_bps());
}

class HcclTest : public ::testing::Test {
 protected:
  HcclTest() : cluster_(&sim_, MakeConfig()), hccl_(&cluster_) {}
  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.num_machines = 8;
    config.machines_per_scaleup_domain = 4;
    return config;
  }
  sim::Simulator sim_;
  Cluster cluster_;
  Hccl hccl_;
};

TEST_F(HcclTest, BroadcastToOneEqualsSend) {
  TimeNs done = -1;
  hccl_.Broadcast(0, 1, GiB(4), LinkType::kHccs, [&] { done = sim_.Now(); });
  sim_.Run();
  double expect_s = static_cast<double>(GiB(4)) / 90e9;
  EXPECT_NEAR(NsToS(done), expect_s, 0.01);
  // One destination is one round: exactly a plain flow on the same link.
  sim::Simulator s;
  Cluster c(&s, MakeConfig());
  TimeNs sent = -1;
  c.LinkOfType(c.machine_of(0), LinkType::kHccs)->StartFlow(GiB(4), [&] { sent = s.Now(); });
  s.Run();
  EXPECT_EQ(done, sent);
}

TEST_F(HcclTest, BroadcastGrowsLogarithmically) {
  auto broadcast_time = [&](int n) {
    sim::Simulator s;
    Cluster c(&s, MakeConfig());
    Hccl h(&c);
    TimeNs done = -1;
    h.Broadcast(0, n, GiB(8), LinkType::kHccs, [&] { done = s.Now(); });
    s.Run();
    return done;
  };
  TimeNs t1 = broadcast_time(1);
  TimeNs t7 = broadcast_time(7);   // 3 rounds
  TimeNs t63 = broadcast_time(63); // 6 rounds
  EXPECT_NEAR(static_cast<double>(t7) / static_cast<double>(t1), 3.0, 0.2);
  EXPECT_NEAR(static_cast<double>(t63) / static_cast<double>(t1), 6.0, 0.3);
}

TEST_F(HcclTest, BroadcastToZeroCompletesImmediately) {
  bool done = false;
  hccl_.Broadcast(0, 0, GiB(1), LinkType::kHccs, [&] { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST(NpuMixTest, ParsesGroupsInOrder) {
  auto specs = ParseNpuMix("gen1:2,gen2:3");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 5u);
  EXPECT_EQ((*specs)[0].name, NpuSpec::Gen1().name);
  EXPECT_EQ((*specs)[1].name, NpuSpec::Gen1().name);
  EXPECT_EQ((*specs)[2].name, NpuSpec::Gen2().name);
  EXPECT_EQ((*specs)[4].name, NpuSpec::Gen2().name);
  EXPECT_LT((*specs)[0].cost_per_hour, (*specs)[2].cost_per_hour);
}

TEST(NpuMixTest, RejectsMalformedMixes) {
  for (const char* bad : {"", "gen1", "gen1:", "gen1:x", "gen1:0", "gen1:-2", "gen3:1",
                          "gen1:2,", "gen1:2,,gen2:1", ":2"}) {
    auto specs = ParseNpuMix(bad);
    EXPECT_FALSE(specs.ok()) << "'" << bad << "' should not parse";
    if (!specs.ok()) {
      EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(ClusterConfigValidateTest, AcceptsDefaultsAndMixedFleet) {
  ClusterConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_machines = 4;
  config.machine_specs = *ParseNpuMix("gen2:2,gen1:2");
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.heterogeneous());
}

TEST(ClusterConfigValidateTest, RejectsNonDivisiblePcieGrouping) {
  ClusterConfig config;
  config.npus_per_machine = 7;  // not divisible by npus_per_pcie_link = 2
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ClusterConfigValidateTest, RejectsMixSizeMismatch) {
  ClusterConfig config;
  config.num_machines = 4;
  config.machine_specs = *ParseNpuMix("gen1:3");  // 3 specs for 4 machines
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterConfigValidateTest, RejectsDegenerateSpecInMix) {
  ClusterConfig config;
  config.num_machines = 2;
  config.machine_specs = *ParseNpuMix("gen1:2");
  config.machine_specs[1].cost_per_hour = 0.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterConfigValidateTest, RejectsSuperPodStraddlingScaleUpDomains) {
  ClusterConfig config;
  config.num_machines = 12;
  config.machines_per_scaleup_domain = 4;
  config.enable_superpod = true;
  config.machines_per_superpod = 6;  // straddles the 4-machine HCCS domains
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.machines_per_superpod = 8;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(HeteroClusterTest, SpecOfTracksMachineGeneration) {
  sim::Simulator sim;
  ClusterConfig config;
  config.num_machines = 4;
  config.machine_specs = *ParseNpuMix("gen2:2,gen1:2");
  Cluster cluster(&sim, config);
  EXPECT_TRUE(cluster.heterogeneous());
  EXPECT_EQ(cluster.spec_of_machine(0).name, NpuSpec::Gen2().name);
  EXPECT_EQ(cluster.spec_of_machine(3).name, NpuSpec::Gen1().name);
  // Global NPU ids inherit their machine's generation, capacity included.
  EXPECT_EQ(cluster.spec_of(0).hbm_capacity, GiB(64));
  EXPECT_EQ(cluster.spec_of(3 * 8).hbm_capacity, GiB(32));
  EXPECT_EQ(cluster.npu(3 * 8)->hbm_capacity(), GiB(32));
}

class SuperPodTest : public ::testing::Test {
 protected:
  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.num_machines = 16;
    config.machines_per_scaleup_domain = 4;
    config.enable_superpod = true;
    config.machines_per_superpod = 8;  // pods: machines 0-7, 8-15
    return config;
  }
  sim::Simulator sim_;
};

TEST_F(SuperPodTest, UbTierSitsBetweenHccsAndRoce) {
  Cluster cluster(&sim_, MakeConfig());
  const NpuId m0 = 0;
  const NpuId m5 = 5 * 8;   // same pod, different HCCS domain
  const NpuId m10 = 10 * 8; // different pod
  EXPECT_EQ(cluster.InterNpuLink(m0, 3 * 8)->type(), LinkType::kHccs);
  EXPECT_TRUE(cluster.SameSuperPod(m0, m5));
  EXPECT_EQ(cluster.InterNpuLink(m0, m5)->type(), LinkType::kUb);
  EXPECT_FALSE(cluster.SameSuperPod(m0, m10));
  EXPECT_EQ(cluster.InterNpuLink(m0, m10)->type(), LinkType::kRoce);
  // Bandwidth ordering makes the tier worth taking: UB above HCCS above RoCE.
  EXPECT_GT(cluster.ub_link(0)->bandwidth_bps(), cluster.hccs_link(0)->bandwidth_bps());
  EXPECT_GT(cluster.hccs_link(0)->bandwidth_bps(), cluster.roce_link(0)->bandwidth_bps());
}

TEST_F(SuperPodTest, WholeClusterIsOnePodWhenSizeIsZero) {
  ClusterConfig config = MakeConfig();
  config.machines_per_superpod = 0;
  Cluster cluster(&sim_, config);
  EXPECT_TRUE(cluster.SameSuperPod(0, 15 * 8));
  EXPECT_EQ(cluster.InterNpuLink(0, 15 * 8)->type(), LinkType::kUb);
}

TEST_F(SuperPodTest, DisabledClusterHasNoUbAttachment) {
  ClusterConfig config = MakeConfig();
  config.enable_superpod = false;
  Cluster cluster(&sim_, config);
  EXPECT_EQ(cluster.ub_link(0), nullptr);
  EXPECT_EQ(cluster.LinkOfType(0, LinkType::kUb), nullptr);
  EXPECT_EQ(cluster.InterNpuLink(0, 5 * 8)->type(), LinkType::kRoce);
}

TEST_F(SuperPodTest, UbLinkSharesBandwidthAcrossConcurrentFlows) {
  ClusterConfig config = MakeConfig();
  config.ub_gbps = 1.0;  // 1 GB/s so the arithmetic below is exact
  config.ub_latency = 0;
  Cluster cluster(&sim_, config);
  SharedLink* ub = cluster.LinkOfType(0, LinkType::kUb);
  ASSERT_NE(ub, nullptr);
  EXPECT_EQ(ub->type(), LinkType::kUb);
  TimeNs done_a = -1;
  TimeNs done_b = -1;
  ub->StartFlow(1'000'000'000, [&] { done_a = sim_.Now(); });
  ub->StartFlow(1'000'000'000, [&] { done_b = sim_.Now(); });
  sim_.Run();
  // Two 1 GB flows over a shared 1 GB/s UB attachment finish together at ~2 s.
  EXPECT_NEAR(NsToS(done_a), 2.0, 0.01);
  EXPECT_NEAR(NsToS(done_b), 2.0, 0.01);
}

TEST(MachineTest, PageCacheDrivesModelLoadHitAndMissPaths) {
  sim::Simulator sim;
  ClusterConfig config;
  config.dram_capacity = GiB(96);
  Cluster cluster(&sim, config);
  Machine* host = cluster.machine(0);
  // Miss path: a cold model is absent from the page cache, so a load must
  // stream from SSD — the strictly slower medium.
  EXPECT_FALSE(host->page_cache().Contains("yi-34b"));
  EXPECT_LT(host->ssd_link()->bandwidth_bps(), host->pcie_link_for(0)->bandwidth_bps());
  // Hit path after preload: resident in DRAM, served over PCIe.
  EXPECT_TRUE(host->page_cache().Insert("yi-34b", GiB(64), sim.Now()));
  EXPECT_TRUE(host->page_cache().Contains("yi-34b"));
  // Eviction turns the next load back into a miss.
  EXPECT_TRUE(host->page_cache().Insert("qwen-72b", GiB(90), SToNs(1)));
  EXPECT_FALSE(host->page_cache().Contains("yi-34b"));
  EXPECT_TRUE(host->page_cache().Contains("qwen-72b"));
}

}  // namespace
}  // namespace deepserve::hw
