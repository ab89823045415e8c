// Property-based tests: randomized operation sequences checked against
// reference implementations and conservation invariants, plus parameterized
// whole-engine sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "flowserve/engine.h"
#include "hw/link.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "serving/heatmap.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

// ---------------- RadixTree vs reference model ----------------

struct NoPayload {
  int x = 0;
  NoPayload SplitTail(size_t) { return NoPayload{}; }
};

// Reference: longest common prefix against a stored set of sequences.
size_t ReferenceLcp(const std::vector<std::vector<rtc::BlockKey>>& stored,
                    const std::vector<rtc::BlockKey>& query) {
  size_t best = 0;
  for (const auto& seq : stored) {
    size_t i = 0;
    while (i < seq.size() && i < query.size() && seq[i] == query[i]) {
      ++i;
    }
    best = std::max(best, i);
  }
  return best;
}

class RadixPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RadixPropertyTest, MatchEqualsReferenceLcp) {
  Rng rng(GetParam());
  rtc::RadixTree<NoPayload> tree;
  std::vector<std::vector<rtc::BlockKey>> stored;
  // Insert sequences with deliberately overlapping prefixes from a tiny
  // symbol alphabet so splits happen constantly.
  for (int i = 0; i < 200; ++i) {
    std::vector<rtc::BlockKey> seq;
    size_t len = static_cast<size_t>(rng.UniformInt(1, 24));
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(static_cast<rtc::BlockKey>(rng.UniformInt(1, 4)));
    }
    tree.Insert(seq, static_cast<TimeNs>(i));
    stored.push_back(std::move(seq));
    // Interleave queries with inserts.
    std::vector<rtc::BlockKey> query;
    size_t qlen = static_cast<size_t>(rng.UniformInt(1, 24));
    for (size_t j = 0; j < qlen; ++j) {
      query.push_back(static_cast<rtc::BlockKey>(rng.UniformInt(1, 4)));
    }
    EXPECT_EQ(tree.Match(query).matched, ReferenceLcp(stored, query))
        << "seed " << GetParam() << " iteration " << i;
  }
}

TEST_P(RadixPropertyTest, EveryStoredSequenceFullyMatches) {
  Rng rng(GetParam() ^ 0xabcdef);
  rtc::RadixTree<NoPayload> tree;
  std::vector<std::vector<rtc::BlockKey>> stored;
  for (int i = 0; i < 100; ++i) {
    std::vector<rtc::BlockKey> seq;
    size_t len = static_cast<size_t>(rng.UniformInt(1, 32));
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(static_cast<rtc::BlockKey>(rng.UniformInt(1, 6)));
    }
    tree.Insert(seq, static_cast<TimeNs>(i));
    stored.push_back(std::move(seq));
  }
  for (const auto& seq : stored) {
    EXPECT_EQ(tree.Match(seq).matched, seq.size());
  }
}

TEST_P(RadixPropertyTest, LeafRemovalNeverBreaksOtherMatches) {
  Rng rng(GetParam() ^ 0x1234);
  rtc::RadixTree<NoPayload> tree;
  std::vector<std::vector<rtc::BlockKey>> stored;
  for (int i = 0; i < 60; ++i) {
    std::vector<rtc::BlockKey> seq;
    size_t len = static_cast<size_t>(rng.UniformInt(2, 16));
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(static_cast<rtc::BlockKey>(rng.UniformInt(1, 3)));
    }
    tree.Insert(seq, static_cast<TimeNs>(i));
    stored.push_back(std::move(seq));
  }
  // Remove half the leaves (LRU order), then every surviving full sequence
  // must still match at least up to the removed depth boundary.
  for (int i = 0; i < 30; ++i) {
    auto* leaf = tree.FindLruLeaf([](const auto&) { return true; });
    if (leaf == nullptr) {
      break;
    }
    tree.RemoveLeaf(leaf);
  }
  for (const auto& seq : stored) {
    // Property: Match never crashes and never over-reports.
    auto match = tree.Match(seq);
    EXPECT_LE(match.matched, seq.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixPropertyTest, ::testing::Values(1, 7, 42, 1337, 9999));

// ---------------- BlockPool conservation ----------------

class BlockPoolPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockPoolPropertyTest, UsageMatchesShadowAccounting) {
  Rng rng(GetParam());
  rtc::BlockPool pool({.npu_capacity = 64, .dram_capacity = 64});
  std::vector<rtc::BlockId> live;
  std::map<rtc::BlockId, int> refs;
  int64_t shadow_npu = 0;
  int64_t shadow_dram = 0;
  for (int step = 0; step < 2000; ++step) {
    int op = static_cast<int>(rng.UniformInt(0, 5));
    if (op <= 1) {  // allocate
      int64_t n = rng.UniformInt(1, 4);
      auto blocks = pool.Allocate(n, rtc::Tier::kNpu);
      if (blocks.ok()) {
        for (auto id : *blocks) {
          live.push_back(id);
          refs[id] = 1;
        }
        shadow_npu += n;
      } else {
        EXPECT_GT(shadow_npu + n, 64);  // failure only when truly full
      }
    } else if (op == 2 && !live.empty()) {  // extra ref
      auto id = live[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      pool.Ref(id);
      ++refs[id];
    } else if (op == 3 && !live.empty()) {  // unref (maybe destroy)
      size_t idx = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      auto id = live[idx];
      bool had_dram = pool.info(id).resident(rtc::Tier::kDram);
      pool.Unref(id);
      if (--refs[id] == 0) {
        // Private block destroyed: residency released everywhere.
        shadow_npu -= pool.Exists(id) ? 0 : 1;
        if (!pool.Exists(id) && had_dram) {
          --shadow_dram;
        }
        if (!pool.Exists(id)) {
          live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
          refs.erase(id);
        }
      }
    } else if (op == 4 && !live.empty()) {  // add DRAM copy
      auto id = live[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      if (!pool.info(id).resident(rtc::Tier::kDram) &&
          pool.AddResidency(id, rtc::Tier::kDram).ok()) {
        ++shadow_dram;
      }
    } else if (op == 5 && !live.empty()) {  // drop DRAM copy
      auto id = live[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      if (pool.info(id).resident(rtc::Tier::kDram)) {
        pool.DropResidency(id, rtc::Tier::kDram);
        --shadow_dram;
      }
    }
    ASSERT_EQ(pool.used(rtc::Tier::kNpu), shadow_npu) << "step " << step;
    ASSERT_EQ(pool.used(rtc::Tier::kDram), shadow_dram) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockPoolPropertyTest, ::testing::Values(3, 17, 2024));

// ---------------- SharedLink conservation ----------------

class LinkPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinkPropertyTest, AllFlowsCompleteAndRespectBandwidth) {
  Rng rng(GetParam());
  sim::Simulator sim;
  const double bw = 1e9;
  hw::SharedLink link(&sim, "p", hw::LinkType::kPcie, bw, UsToNs(10));
  int completed = 0;
  Bytes total = 0;
  TimeNs last_start = 0;
  const int flows = 50;
  for (int i = 0; i < flows; ++i) {
    TimeNs start = last_start + static_cast<TimeNs>(rng.UniformInt(0, 40)) * 1000000;
    last_start = start;
    Bytes bytes = static_cast<Bytes>(rng.UniformInt(1, 200)) * 1000000;
    total += bytes;
    sim.ScheduleAt(start, [&link, bytes, &completed] {
      link.StartFlow(bytes, [&completed] { ++completed; });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, flows);
  EXPECT_EQ(link.total_bytes_transferred(), total);
  EXPECT_EQ(link.active_flows(), 0u);
  // The link cannot finish faster than serializing every byte at full
  // bandwidth from the first start.
  EXPECT_GE(NsToS(sim.Now()), static_cast<double>(total) / bw - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkPropertyTest, ::testing::Values(5, 55, 555));

// ---------------- Heatmap round trip ----------------

class HeatmapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeatmapPropertyTest, SerializeParsePreservesEveryCell) {
  Rng rng(GetParam());
  std::vector<int64_t> prefill;
  int64_t edge = 128;
  for (int i = 0; i < 4; ++i) {
    prefill.push_back(edge);
    edge *= 2;
  }
  std::vector<double> ratios = {0.1, 0.5, 1.5};
  serving::PdHeatmap map(prefill, ratios);
  for (size_t r = 0; r < map.rows(); ++r) {
    for (size_t c = 0; c < map.cols(); ++c) {
      map.AddCell(r, c, rng.Normal(0, 1));
    }
  }
  auto parsed = serving::PdHeatmap::Parse(map.Serialize());
  ASSERT_TRUE(parsed.ok());
  for (size_t r = 0; r < map.rows(); ++r) {
    for (size_t c = 0; c < map.cols(); ++c) {
      EXPECT_NEAR(parsed->cell(r, c), map.cell(r, c), 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeatmapPropertyTest, ::testing::Values(2, 22, 222));

// ---------------- Whole-engine sweeps ----------------

// Dimensions: (model preset, chunked?, slo policy with a TBT budget (else
// fcfs)?, pic?).
using EngineSweepParam = std::tuple<const char*, bool, bool, bool>;

class EnginePropertySweep : public ::testing::TestWithParam<EngineSweepParam> {};

TEST_P(EnginePropertySweep, RandomWorkloadAlwaysDrainsCleanly) {
  auto [model_name, chunked, slo, pic] = GetParam();
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Preset(model_name).value();
  config.parallelism = {1, 1, 1};
  config.kv_block_capacity_override = 2048;
  config.enable_chunked_prefill = chunked;
  if (slo) {
    config.sched.policy = "slo";
    config.sched.tbt_budget_ms = 50.0;
  }
  config.enable_pic = pic;
  flowserve::Engine engine(&sim, config);
  Rng rng(0x5eed ^ std::hash<std::string>{}(model_name));
  int completed = 0;
  int first_tokens = 0;
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.arrival = SToNs(rng.Uniform(0, 5));
    spec.decode_len = rng.UniformInt(1, 96);
    spec.priority = static_cast<int>(rng.UniformInt(0, 2));
    int64_t prefill = rng.UniformInt(16, 2048);
    std::vector<TokenId> tokens;
    for (int64_t j = 0; j < prefill; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 20000)));
    }
    spec.prompt = std::move(tokens);
    sim.ScheduleAt(spec.arrival, [&engine, &completed, &first_tokens, spec] {
      engine.Submit(spec, [&first_tokens](const flowserve::Sequence&) { ++first_tokens; },
                    [&completed](const flowserve::Sequence&) { ++completed; });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(first_tokens, n);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.load().running, 0);
  // Every remaining NPU block is reclaimable cache, not a leaked pin.
  EXPECT_TRUE(engine.rtc().EnsureNpuFree(engine.kv_block_capacity()).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EnginePropertySweep,
    ::testing::Combine(::testing::Values("tiny-1b", "llama3-8b", "mixtral-8x7b"),
                       ::testing::Bool(), ::testing::Bool(), ::testing::Bool()));

// Random cancellation storms never corrupt the engine.
class CancelStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CancelStormTest, RandomCancelsLeaveEngineConsistent) {
  Rng rng(GetParam());
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.kv_block_capacity_override = 1024;
  flowserve::Engine engine(&sim, config);
  std::set<workload::RequestId> completed;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.decode_len = rng.UniformInt(8, 128);
    int64_t prefill = rng.UniformInt(64, 1024);
    std::vector<TokenId> tokens;
    for (int64_t j = 0; j < prefill; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 9000)));
    }
    spec.prompt = std::move(tokens);
    TimeNs at = SToNs(rng.Uniform(0, 2));
    sim.ScheduleAt(at, [&engine, &completed, spec] {
      engine.Submit(spec, nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
        completed.insert(id);
      });
    });
    // Randomly cancel ~1/3 of them at a random later moment.
    if (rng.Bernoulli(0.33)) {
      sim.ScheduleAt(at + SToNs(rng.Uniform(0.01, 1.5)), [&engine, id = spec.id] {
        (void)engine.Cancel(id);  // may have already finished: either is fine
      });
    }
  }
  sim.Run();
  EXPECT_TRUE(engine.idle());
  // Cancelled + completed = everything; no request vanished silently.
  EXPECT_EQ(static_cast<int64_t>(completed.size()) + engine.stats().cancelled, n);
  EXPECT_TRUE(engine.rtc().EnsureNpuFree(engine.kv_block_capacity()).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelStormTest, ::testing::Values(11, 31, 71, 101));

// Trace generation is monotone in RPS (more requests) and duration.
class TraceSweep : public ::testing::TestWithParam<double> {};

TEST_P(TraceSweep, RequestCountScalesWithRps) {
  double rps = GetParam();
  auto low = workload::TraceGenerator(workload::TraceGenerator::InternalTrace(rps, 120, 5))
                 .Generate();
  auto high =
      workload::TraceGenerator(workload::TraceGenerator::InternalTrace(rps * 2, 120, 5))
          .Generate();
  EXPECT_GT(high.size(), low.size());
  EXPECT_NEAR(static_cast<double>(low.size()), rps * 120, rps * 120 * 0.35 + 10);
}

INSTANTIATE_TEST_SUITE_P(Rates, TraceSweep, ::testing::Values(0.5, 1.0, 2.0, 5.0));

}  // namespace
}  // namespace deepserve
