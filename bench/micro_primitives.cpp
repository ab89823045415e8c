// Engine-primitive microbenchmarks (google-benchmark): the hot control-plane
// data structures — RTC radix tree, block pool, chain hashing, the simulator
// event queue, DistFlow op submission, the JE's locality pick, and the
// engine's decode step.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "flowserve/engine.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
#include "serving/prompt_tree.h"
#include "sim/simulator.h"

namespace deepserve {
namespace {

std::vector<TokenId> RandomTokens(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TokenId> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<TokenId>(rng.UniformInt(256, 120000));
  }
  return tokens;
}

void BM_ChainHashBlockKeys(benchmark::State& state) {
  auto tokens = RandomTokens(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto keys = rtc::TokensToBlockKeys(tokens, 16);
    benchmark::DoNotOptimize(keys);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainHashBlockKeys)->Arg(2048)->Arg(8192);

void BM_RadixTreeInsert(benchmark::State& state) {
  struct V {
    int x = 0;
    V SplitTail(size_t) { return V{}; }
  };
  Rng rng(2);
  std::vector<std::vector<rtc::BlockKey>> keys;
  for (int i = 0; i < 256; ++i) {
    std::vector<rtc::BlockKey> k(static_cast<size_t>(state.range(0)));
    // Shared 1/2 prefix across sequences to exercise splits.
    for (size_t j = 0; j < k.size(); ++j) {
      k[j] = j < k.size() / 2 ? j + 1 : rng.Next();
    }
    keys.push_back(std::move(k));
  }
  for (auto _ : state) {
    rtc::RadixTree<V> tree;
    for (const auto& k : keys) {
      tree.Insert(k, 0);
    }
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RadixTreeInsert)->Arg(64)->Arg(256);

void BM_RadixTreeMatch(benchmark::State& state) {
  struct V {
    int x = 0;
    V SplitTail(size_t) { return V{}; }
  };
  rtc::RadixTree<V> tree;
  Rng rng(3);
  std::vector<std::vector<rtc::BlockKey>> keys;
  for (int i = 0; i < 1024; ++i) {
    std::vector<rtc::BlockKey> k(128);
    for (size_t j = 0; j < k.size(); ++j) {
      k[j] = j < 64 ? j + 1 : rng.Next();
    }
    tree.Insert(k, 0);
    keys.push_back(std::move(k));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto match = tree.Match(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(match.matched);
  }
}
BENCHMARK(BM_RadixTreeMatch);

// A prompt tree held at its node cap, as the JE keeps it: every iteration
// inserts one prompt (a shared opening block plus a private tail) and evicts
// LRU leaves back down to the cap. The cost per iteration should not depend on
// the cap.
void BM_RadixTreeInsertEvictAtCap(benchmark::State& state) {
  struct V {
    int x = 0;
    V SplitTail(size_t) { return V{}; }
  };
  using Tree = rtc::RadixTree<V>;
  size_t cap = static_cast<size_t>(state.range(0));
  Rng rng(4);
  auto next_prompt = [&rng] {
    std::vector<rtc::BlockKey> k(8);
    k[0] = static_cast<rtc::BlockKey>(rng.UniformInt(1, 32));
    for (size_t j = 1; j < k.size(); ++j) {
      k[j] = rng.Next();
    }
    return k;
  };
  Tree tree;
  TimeNs now = 0;
  while (tree.NodeCount() < cap) {
    tree.Insert(next_prompt(), ++now);
  }
  for (auto _ : state) {
    tree.Insert(next_prompt(), ++now);
    tree.ScanLruLeaves([&](Tree::Node&) {
      return tree.NodeCount() > cap ? rtc::LruStep::kRemove : rtc::LruStep::kStop;
    });
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixTreeInsertEvictAtCap)->Arg(4096)->Arg(65536);

// The RTC swap scan's search for its next victim when most cached leaves
// are already demoted to DRAM and are the coldest (the shape a long replay
// reaches). range(0) picks the list: 0 walks every leaf, skipping demoted
// ones, as the scan did before retirement; 1 walks the active list, where the
// demoted leaves were retired by an earlier pass. range(1) is the number of
// leaves, 98% of them demoted. The active walk should not depend on it.
void BM_SwapScanOverDemotedHistory(benchmark::State& state) {
  struct V {
    bool demoted = false;
    V SplitTail(size_t) { return *this; }
  };
  using Tree = rtc::RadixTree<V>;
  const auto list = static_cast<rtc::LruList>(state.range(0));
  const auto leaves = static_cast<size_t>(state.range(1));
  Tree tree;
  for (size_t i = 0; i < leaves; ++i) {
    std::vector<rtc::BlockKey> k = {i + 1, i + 1};
    Tree::Node* leaf = tree.Insert(k, static_cast<TimeNs>(i));
    leaf->value.demoted = i < leaves * 98 / 100;
  }
  auto find_victim = [&tree, list] {
    Tree::Node* victim = nullptr;
    tree.ScanLruLeaves(
        [&](Tree::Node& leaf) {
          if (leaf.value.demoted) {
            return list == rtc::LruList::kActive ? rtc::LruStep::kRetire : rtc::LruStep::kNext;
          }
          victim = &leaf;
          return rtc::LruStep::kStop;
        },
        list);
    return victim;
  };
  find_victim();  // the pass that retires the demoted history
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_victim());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapScanOverDemotedHistory)
    ->ArgsProduct({{0, 1}, {1024, 8192, 65536}});

// The JE's locality pick (serving::LocalityPick) over a fully matched path
// of range(0) nodes, each tagged with 30 of 64 candidate TEs: 300 tags at 10
// nodes. The pick stops at the deepest tagged node, so its cost should not
// depend on how many tags the shallower nodes hold.
void BM_LocalityPickOverTaggedPath(benchmark::State& state) {
  struct FakeTe {
    workload::TeId te_id = 0;
    int64_t depth = 0;
    workload::TeId id() const { return te_id; }
    int64_t queue_depth() const { return depth; }
  };
  const auto nodes = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<FakeTe> fleet(64);
  std::vector<FakeTe*> candidates;
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].te_id = static_cast<workload::TeId>(i);
    fleet[i].depth = rng.UniformInt(0, 4);
    candidates.push_back(&fleet[i]);
  }
  serving::PromptTree tree;
  std::vector<rtc::BlockKey> keys;
  for (size_t n = 0; n < nodes; ++n) {
    // Each prompt extends the previous one by 4 blocks: one new path node.
    for (int b = 0; b < 4; ++b) {
      keys.push_back(keys.size() + 1);
    }
    serving::PromptTree::Node* leaf = tree.Insert(keys, 0);
    while (leaf->value.tes.size() < 30) {
      leaf->value.Add(static_cast<workload::TeId>(rng.UniformInt(0, 63)));
    }
  }
  const serving::PromptTree::MatchResult match = tree.Match(keys);
  for (auto _ : state) {
    bool hit = false;
    benchmark::DoNotOptimize(serving::LocalityPick(match, candidates, &hit));
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityPickOverTaggedPath)->Arg(10)->Arg(40)->Arg(160);

void BM_BlockPoolAllocFree(benchmark::State& state) {
  rtc::BlockPool pool({.npu_capacity = 1 << 20, .dram_capacity = 0});
  for (auto _ : state) {
    auto blocks = pool.Allocate(64, rtc::Tier::kNpu).value();
    for (auto id : blocks) {
      pool.Unref(id);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BlockPoolAllocFree);

void BM_RtcMatchPopulateCycle(benchmark::State& state) {
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 1 << 16;
  rtc::RtcMaster master(&sim, config);
  auto tokens = RandomTokens(2048, 7);
  auto blocks = master.AllocBlocks(128).value();
  master.Preserve(tokens, blocks);
  master.Free(blocks);
  for (auto _ : state) {
    auto info = master.MatchByPrefixToken(tokens);
    benchmark::DoNotOptimize(info.matched_tokens);
  }
}
BENCHMARK(BM_RtcMatchPopulateCycle);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(i, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// One tiny-1b engine with `batch` sequences past prefill, decoding.
struct DecodeRig {
  static constexpr int64_t kDecodeLen = 2048;

  explicit DecodeRig(int64_t batch) {
    flowserve::EngineConfig config;
    config.model = model::ModelSpec::Tiny1B();
    config.parallelism = {1, 1, 1};
    config.kv_block_capacity_override = 1 << 14;
    engine = std::make_unique<flowserve::Engine>(&sim, config);
    for (int64_t i = 0; i < batch; ++i) {
      workload::RequestSpec spec;
      spec.id = static_cast<workload::RequestId>(i + 1);
      spec.prompt = RandomTokens(64, static_cast<uint64_t>(i + 100));
      spec.decode_len = kDecodeLen;
      engine->Submit(spec, nullptr, [](const flowserve::Sequence&) {});
    }
    while (engine->stats().steps < 4 && sim.Step()) {
    }
  }

  sim::Simulator sim;
  std::unique_ptr<flowserve::Engine> engine;
};

// Host cost of one steady-state decode step (build, schedule, complete) at
// batch 1/8/32; KV block boundaries are crossed as in a real decode.
void BM_EngineDecodeStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  auto rig = std::make_unique<DecodeRig>(batch);
  int64_t steps_left = DecodeRig::kDecodeLen / 2;
  for (auto _ : state) {
    if (steps_left == 0) {
      state.PauseTiming();
      rig = std::make_unique<DecodeRig>(batch);
      steps_left = DecodeRig::kDecodeLen / 2;
      state.ResumeTiming();
    }
    rig->sim.Step();
    --steps_left;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineDecodeStep)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace deepserve

BENCHMARK_MAIN();
