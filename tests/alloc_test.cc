// Heap-allocation regression tests for the simulator's hot paths.
//
// This binary replaces the global operator new with one that counts calls
// and bytes, so a test can assert how much a window of simulated work
// allocated. The engine's steady-state decode step and the RTC's swap scan
// are the two paths that run per step and per cached block; both must stay
// free of per-step and per-block heap traffic (DESIGN #8 and #12). A request's
// dispatch must not copy its prompt (DESIGN #14).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/time_units.h"
#include "flowserve/engine.h"
#include "rtc/rtc_master.h"
#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace {
int64_t g_allocations = 0;
int64_t g_bytes = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  g_bytes += static_cast<int64_t>(size);
  size = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace deepserve {
namespace {

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    // Distinct content per request: no prefix reuse between them.
    tokens.push_back(static_cast<TokenId>(1000 * id + i));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

TEST(AllocTest, SteadyStateDecodeStepsDoNotAllocate) {
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.kv_block_capacity_override = 4096;
  flowserve::Engine engine(&sim, config);
  constexpr int kBatch = 6;
  for (int i = 0; i < kBatch; ++i) {
    engine.Submit(MakeRequest(i + 1, 100, 400), nullptr, [](const flowserve::Sequence&) {});
  }
  // Past tokenize and prefill: every sequence decodes in every step.
  while (engine.stats().steps < 8 && sim.Step()) {
  }
  ASSERT_EQ(engine.load().running, kBatch);

  // Each event from here on completes one step and issues the next. A step
  // whose sequences all stay inside their current KV block must not touch the
  // heap; one that crosses a block boundary may (the block table grows).
  int clean_steps = 0;
  for (int step = 0; step < 64; ++step) {
    const int64_t steps = engine.stats().steps;
    const int64_t blocks = engine.rtc().npu_blocks_used();
    const int64_t allocations = g_allocations;
    ASSERT_TRUE(sim.Step());
    ASSERT_EQ(engine.stats().steps, steps + 1);
    if (engine.rtc().npu_blocks_used() == blocks) {
      EXPECT_EQ(g_allocations - allocations, 0) << "decode step " << steps;
      ++clean_steps;
    }
  }
  EXPECT_EQ(engine.load().running, kBatch);
  EXPECT_GE(clean_steps, 48);
}

// Heap allocations of one background swap scan that demotes a single cached
// leaf of `leaf_blocks` blocks, copy completion included.
int64_t SwapScanAllocations(int64_t leaf_blocks) {
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.block_size = 16;
  config.pool.npu_capacity = 40;
  config.pool.dram_capacity = 256;
  config.enable_background_swap = true;
  rtc::RtcMaster master(&sim, config);
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < 16 * leaf_blocks; ++i) {
    tokens.push_back(static_cast<TokenId>(i + 1));
  }
  auto leaf = master.AllocBlocks(leaf_blocks).value();
  master.Preserve(tokens, leaf, rtc::TokensToBlockKeys(tokens, config.block_size));
  master.Free(leaf);
  // Private blocks keep NPU usage above the swap watermark; allocating them
  // arms the first scan.
  auto held = master.AllocBlocks(36 - leaf_blocks).value();
  const int64_t before = g_allocations;
  sim.RunUntil(config.swap_interval + MsToNs(1));
  const int64_t made = g_allocations - before;
  EXPECT_EQ(master.stats().swapped_out_blocks, leaf_blocks);
  EXPECT_FALSE(master.pool().info(leaf.front()).resident(rtc::Tier::kNpu));
  master.Free(held);
  return made;
}

TEST(AllocTest, SwapScanMakesNoPerBlockAllocation) {
  EXPECT_EQ(SwapScanAllocations(8), SwapScanAllocations(2));
}

// Bytes allocated by one JobExecutor::HandleRequest of a `prompt_len`-token
// request, through TaskExecutor::SubmitUnified and Engine::Submit. An
// earlier request with the same prompt has already put its path in the JE's
// prompt tree, so the tree adds no nodes: what is counted is the request's
// own dispatch.
int64_t DispatchBytes(int64_t prompt_len) {
  sim::Simulator sim;
  serving::JobExecutor je(&sim, serving::JeConfig{}, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  serving::TeConfig te_config;
  te_config.id = 1;
  te_config.engine.model = model::ModelSpec::Tiny1B();
  te_config.engine.parallelism = {1, 1, 1};
  te_config.engine.kv_block_capacity_override = 4096;
  serving::TaskExecutor te(&sim, te_config);
  je.AddColocatedTe(&te);
  const workload::RequestSpec first = MakeRequest(1, prompt_len, 4);
  workload::RequestSpec second = first;
  second.id = 2;
  je.HandleRequest(first, {});
  const int64_t before = g_bytes;
  je.HandleRequest(second, {});
  const int64_t made = g_bytes - before;
  sim.Run();
  EXPECT_EQ(te.engine().stats().completed, 2);
  return made;
}

TEST(AllocTest, DispatchDoesNotCopyThePrompt) {
  // Only the JE's block-key chain grows with the prompt: one key per block.
  // The slack covers the event queue, whose bucket layout depends on when
  // the tokenizer event fires, and so on the prompt's length; a copy of the
  // 3840 extra tokens anywhere on the path would take 15 KB.
  const int64_t chain_growth = (4096 - 256) / 16 * static_cast<int64_t>(sizeof(rtc::BlockKey));
  EXPECT_LE(DispatchBytes(4096) - DispatchBytes(256), chain_growth + 64);
}

}  // namespace
}  // namespace deepserve
