// Heap-allocation regression tests for the simulator's hot paths.
//
// This binary replaces the global operator new with one that counts calls
// and bytes, so a test can assert how much a window of simulated work
// allocated. The engine's steady-state decode step and the RTC's swap scan
// are the two paths that run per step and per cached block; both must stay
// free of per-step and per-block heap traffic (DESIGN #8 and #12), and so must
// every RTC operation on a block table (DESIGN #16). A committed block adds at
// most 4 bytes to the cache index, whose edges slice the request's key chain
// instead of copying it (DESIGN #12), and one left only in DRAM gives its pool
// slot back (DESIGN #16). A prefix match reuses its path buffer, so its heap
// traffic does not grow with the path's depth. A request's dispatch must not
// copy its prompt (DESIGN #14), nor copy or wrap its callbacks (DESIGN #15).
// A control-log append allocates only when the log's storage doubles
// (DESIGN #10).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/time_units.h"
#include "ctrl/leader.h"
#include "ctrl/te_directory.h"
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
    engine.Submit(MakeRequest(i + 1, 100, 400), {nullptr, [](const flowserve::Sequence&) {}});
  }
  // Past tokenize and prefill: every sequence decodes in every step. Each
  // stats() call settles the decode run in flight, so every event here
  // completes one step. Two KV blocks' worth of such steps also bring the
  // event queue to its steady size: a settle cancels the run's end event,
  // whose tombstone stays queued until its time passes.
  while (engine.stats().steps < 40 && sim.Step()) {
  }
  // One step decodes one token for each of the kBatch sequences.
  auto expect_full_batch_step = [&] {
    const int64_t decoded = engine.stats().decode_tokens_generated;
    ASSERT_TRUE(sim.Step());
    EXPECT_EQ(engine.stats().decode_tokens_generated - decoded, kBatch);
  };
  expect_full_batch_step();

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
  expect_full_batch_step();
  EXPECT_GE(clean_steps, 48);
}

// Without stats() reads between events, each event completes a whole decode
// run: every step up to the next KV block boundary. A settle mid-run (one
// stats() read) applies the steps that have ended and moves the run's end
// event. Neither allocates once the engine is warm.
TEST(AllocTest, DecodeRunsAndSettlesDoNotAllocate) {
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.kv_block_capacity_override = 4096;
  flowserve::Engine engine(&sim, config);
  constexpr int kBatch = 6;
  constexpr int64_t kRunSteps = rtc::kBlockTokens;
  // The first request's prefill runs alone, a step ahead of the rest. One
  // prompt token fewer keeps every context equal, so the whole batch crosses
  // a KV block at the same step and each run is one block long.
  for (int i = 0; i < kBatch; ++i) {
    engine.Submit(MakeRequest(i + 1, i == 0 ? 99 : 100, 400),
                  {nullptr, [](const flowserve::Sequence&) {}});
  }
  while (engine.stats().steps < 40 && sim.Step()) {
  }
  // Each read cuts the run in flight to its first step; the next event ends
  // that step, the one after it the rest of the block.
  const int64_t steps = engine.stats().steps;
  const int64_t decoded = engine.stats().decode_tokens_generated;
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Step());

  // Whole runs. A run's end also builds the next run's first step, which
  // takes each sequence's next block: that allocates only when a block
  // table outgrows its capacity.
  int clean_runs = 0;
  TimeNs run_time = 0;
  for (int run = 0; run < 8; ++run) {
    const int64_t allocations = g_allocations;
    const TimeNs start = sim.Now();
    ASSERT_TRUE(sim.Step());
    run_time = sim.Now() - start;
    clean_runs += g_allocations == allocations ? 1 : 0;
  }
  EXPECT_GE(clean_runs, 6);

  // One settle halfway into the next run: it applies the steps that ended
  // and moves the run's end event. No block changes hands, so neither the
  // settle nor the end of the step left in flight allocates.
  sim.RunUntil(sim.Now() + run_time / 2);
  int64_t allocations = g_allocations;
  const flowserve::EngineStats& settled = engine.stats();
  EXPECT_EQ(g_allocations - allocations, 0);
  // Each of the eight whole runs' events completed a block's worth of
  // steps, each step a full batch.
  const int64_t done = settled.steps - steps;
  EXPECT_GT(done, 8 * kRunSteps + 2);
  EXPECT_EQ(settled.decode_tokens_generated - decoded, kBatch * done);
  allocations = g_allocations;
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(g_allocations - allocations, 0);
}

// Heap allocations of one background swap scan that demotes a single cached
// leaf of `leaf_blocks` blocks, copy completion included.
int64_t SwapScanAllocations(int64_t leaf_blocks) {
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 40;
  config.pool.dram_capacity = 256;
  rtc::RtcMaster master(&sim, config);
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < 16 * leaf_blocks; ++i) {
    tokens.push_back(static_cast<TokenId>(i + 1));
  }
  auto leaf = master.AllocBlocks(leaf_blocks).value();
  master.Preserve(tokens, leaf, rtc::KeyChain::Hash(tokens));
  master.Free(leaf);
  // Private blocks keep NPU usage above the swap watermark; allocating them
  // arms the first scan.
  auto held = master.AllocBlocks(36 - leaf_blocks).value();
  const int64_t before = g_allocations;
  sim.RunUntil(rtc::RtcMaster::kSwapInterval + MsToNs(1));
  const int64_t made = g_allocations - before;
  EXPECT_EQ(master.stats().swapped_out_blocks, leaf_blocks);
  EXPECT_FALSE(master.pool().info(leaf.front()).resident(rtc::Tier::kNpu));
  master.Free(held);
  return made;
}

TEST(AllocTest, SwapScanMakesNoPerBlockAllocation) {
  EXPECT_EQ(SwapScanAllocations(8), SwapScanAllocations(2));
}

// Heap allocations of each RTC operation on one `n`-block table: the commit,
// the release, a swap demotion (the scan's Copy and its completion), the
// match and Acquire that pin it again, and its Populate back from DRAM.
struct TableOpCosts {
  int64_t preserve = 0;
  int64_t free = 0;
  int64_t demote = 0;
  int64_t acquire = 0;
  int64_t populate = 0;
};

TableOpCosts TableOpAllocations(int64_t n) {
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 2 * n;
  config.pool.dram_capacity = 2 * n;
  rtc::RtcMaster master(&sim, config);
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < rtc::kBlockTokens * n; ++i) {
    tokens.push_back(static_cast<TokenId>(i + 1));
  }
  const rtc::KeyChain keys = rtc::KeyChain::Hash(tokens);
  rtc::BlockTable blocks = master.AllocBlocks(n).value();
  // Private blocks keep NPU use above the swap watermark and arm the scan.
  rtc::BlockTable held = master.AllocBlocks(n - n / 16).value();
  TableOpCosts cost;
  int64_t mark = g_allocations;
  auto take = [&mark] {
    const int64_t made = g_allocations - mark;
    mark = g_allocations;
    return made;
  };
  master.Preserve(tokens, blocks, keys);
  cost.preserve = take();
  master.Free(blocks);
  cost.free = take();
  // One scan demotes the whole leaf; its copy lands and drops the NPU copies.
  sim.RunUntil(rtc::RtcMaster::kSwapInterval + MsToNs(1));
  cost.demote = take();
  EXPECT_EQ(master.stats().swapped_out_blocks, n);
  rtc::MatchInfo match = master.MatchByPrefixToken(tokens, keys.span());
  master.Acquire(match.blocks);
  cost.acquire = take();
  EXPECT_EQ(match.offnpu_tokens, rtc::kBlockTokens * n);
  auto ticket = master.Populate(match);
  EXPECT_TRUE(ticket.ok());
  while (master.QueryPopulate(*ticket) == rtc::PopulateState::kInFlight && sim.Step()) {
  }
  cost.populate = take();
  EXPECT_EQ(master.stats().populated_blocks, n);
  master.Free(match.blocks);
  master.Free(held);
  return cost;
}

TEST(AllocTest, BlockTableOpsMakeNoPerBlockAllocation) {
  const TableOpCosts small = TableOpAllocations(16);
  const TableOpCosts large = TableOpAllocations(1024);
  EXPECT_EQ(large.preserve, small.preserve);
  EXPECT_EQ(large.free, small.free);
  EXPECT_EQ(large.demote, small.demote);
  EXPECT_EQ(large.acquire, small.acquire);
  EXPECT_EQ(large.populate, small.populate);
}

TEST(AllocTest, CachedBlockCostsFourTreeBytes) {
  // Committing a fresh 128-block run into an empty cache makes one tree node,
  // and one entry for it in the root's child map, whose run holds the
  // table's extents (one here): at most 4 bytes per block; its edge slices
  // the prompt's key chain, hashed before the commit, and copies no key
  // (DESIGN #12, #16). With the BlockPool's 12-byte slot, that is at most 16
  // bytes of metadata per cached block.
  constexpr int64_t kBlocks = 128;
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 4 * kBlocks;  // below the swap watermark
  rtc::RtcMaster master(&sim, config);
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < rtc::kBlockTokens * kBlocks; ++i) {
    tokens.push_back(static_cast<TokenId>(i + 1));
  }
  const rtc::KeyChain keys = rtc::KeyChain::Hash(tokens);
  auto blocks = master.AllocBlocks(kBlocks).value();
  const int64_t bytes = g_bytes;
  master.Preserve(tokens, blocks, keys);
  const int64_t committed = g_bytes - bytes;
  EXPECT_EQ(master.index_nodes(), 1u);
  using Tree = rtc::RadixTree<rtc::BlockRun>;
  EXPECT_LE(committed, kBlocks * static_cast<int64_t>(sizeof(uint32_t)) +
                           static_cast<int64_t>(sizeof(Tree::Node)) +
                           static_cast<int64_t>(sizeof(Tree::ChildMap::Entry)));
  master.Free(blocks);
}

TEST(AllocTest, PrefixMatchDownADeepPathAllocatesNoMore) {
  // A prefix lookup down a path of one-block nodes allocates no more than one
  // down a single node holding as many blocks: the match's path buffer is the
  // RtcMaster's, reused, and the path's blocks are contiguous, so they make
  // one extent either way (DESIGN #16).
  constexpr int64_t kBlocks = 64;
  auto lookup_allocations = [](bool deep) {
    sim::Simulator sim;
    rtc::RtcConfig config;
    config.pool.npu_capacity = 4 * kBlocks;  // below the swap watermark
    rtc::RtcMaster master(&sim, config);
    std::vector<TokenId> tokens;
    for (int64_t i = 0; i < rtc::kBlockTokens * kBlocks; ++i) {
      tokens.push_back(static_cast<TokenId>(i + 1));
    }
    const rtc::KeyChain keys = rtc::KeyChain::Hash(tokens);
    const rtc::BlockTable blocks = master.AllocBlocks(kBlocks).value();
    // Each commit of a one-block-longer prefix adds one node under the last.
    for (int64_t n = deep ? 1 : kBlocks; n <= kBlocks; ++n) {
      const std::span<const TokenId> prefix(tokens.data(),
                                            static_cast<size_t>(n * rtc::kBlockTokens));
      master.Preserve(prefix, blocks, rtc::KeyChain::Hash(prefix));
    }
    EXPECT_EQ(master.index_nodes(), static_cast<size_t>(deep ? kBlocks : 1));
    master.MatchByPrefixToken(tokens, keys.span());  // sizes the reused buffers
    const int64_t allocations = g_allocations;
    const rtc::MatchInfo match = master.MatchByPrefixToken(tokens, keys.span());
    const int64_t made = g_allocations - allocations;
    EXPECT_EQ(match.matched_tokens, rtc::kBlockTokens * kBlocks);
    master.Free(blocks);
    return made;
  };
  EXPECT_LE(lookup_allocations(/*deep=*/true), lookup_allocations(/*deep=*/false));
}

TEST(AllocTest, DramOnlyLeafGivesUpItsPoolSlots) {
  // A cached leaf whose blocks sit only in DRAM, unreferenced, keeps nothing
  // but its edge (a slice of the prompt's key chain): the swap scan that
  // retires it parks its run, which frees one 12-byte BlockPool slot per block
  // and the run's extent list. The DRAM tier still counts the blocks (DESIGN
  // #16).
  constexpr int64_t kBlocks = 128;
  sim::Simulator sim;
  rtc::RtcConfig config;
  config.pool.npu_capacity = 8 * kBlocks;
  config.pool.dram_capacity = 2 * kBlocks;
  rtc::RtcMaster master(&sim, config);
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < rtc::kBlockTokens * kBlocks; ++i) {
    tokens.push_back(static_cast<TokenId>(i + 1));
  }
  auto leaf = master.AllocBlocks(kBlocks).value();
  master.Preserve(tokens, leaf, rtc::KeyChain::Hash(tokens));
  master.Free(leaf);
  // 87.5% of the NPU: the held blocks alone keep use above the swap
  // watermark, so the scans go on once the leaf is demoted.
  auto held = master.AllocBlocks(7 * kBlocks).value();
  // Scan 1 demotes the leaf; its copy lands and drops the NPU copies.
  sim.RunUntil(rtc::RtcMaster::kSwapInterval + MsToNs(1));
  ASSERT_EQ(master.stats().swapped_out_blocks, kBlocks);
  ASSERT_FALSE(master.pool().info(leaf.front()).resident(rtc::Tier::kNpu));
  const size_t slots = master.pool().total_blocks();
  const int64_t dram = master.pool().used(rtc::Tier::kDram);
  // Scan 2 retires the leaf and parks it.
  sim.RunUntil(2 * rtc::RtcMaster::kSwapInterval + MsToNs(1));
  EXPECT_EQ(master.pool().total_blocks(), slots - static_cast<size_t>(kBlocks));
  EXPECT_EQ(master.pool().used(rtc::Tier::kDram), dram);
  master.Free(held);
}

// Heap traffic of one JobExecutor::HandleRequest of a `prompt_len`-token
// request carrying `handler`, through TaskExecutor::SubmitUnified and
// Engine::Submit. An earlier request with the same prompt has already put its
// path in the JE's prompt tree, so the tree adds no nodes: what is counted is
// the request's own dispatch.
struct DispatchCost {
  int64_t allocations = 0;
  int64_t bytes = 0;
};

DispatchCost Dispatch(int64_t prompt_len, serving::ResponseHandler handler = {}) {
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
  const int64_t allocations = g_allocations;
  const int64_t bytes = g_bytes;
  je.HandleRequest(second, std::move(handler));
  const DispatchCost cost{g_allocations - allocations, g_bytes - bytes};
  sim.Run();
  EXPECT_EQ(te.engine().stats().completed, 2);
  return cost;
}

TEST(AllocTest, DispatchDoesNotCopyThePrompt) {
  // Only the JE's block-key chain grows with the prompt: one key per block.
  // The slack covers the event queue, whose bucket layout depends on when
  // the tokenizer event fires, and so on the prompt's length; a copy of the
  // 3840 extra tokens anywhere on the path would take 15 KB.
  const int64_t chain_growth = (4096 - 256) / 16 * static_cast<int64_t>(sizeof(rtc::BlockKey));
  EXPECT_LE(Dispatch(4096).bytes - Dispatch(256).bytes, chain_growth + 64);
}

TEST(AllocTest, JeAndRtcNodesSliceOneChainAndASplitCopiesNoKey) {
  // One colocated request: the JE's prompt-tree node and the node the TE's
  // RTC commits at release both slice the key chain the JE hashed (DESIGN
  // #12, #14).
  constexpr int64_t kBlocks = 64;
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
  const workload::RequestSpec spec = MakeRequest(1, 16 * kBlocks, 4);
  je.HandleRequest(spec, {});
  sim.Run();
  ASSERT_EQ(te.engine().stats().completed, 1);
  using Tree = rtc::RadixTree<rtc::BlockRun>;
  const std::vector<rtc::BlockKey> keys = rtc::TokensToBlockKeys(spec.prompt);
  const serving::PromptTree::MatchResult routed = je.colocated_tree().Match(keys);
  rtc::RtcMaster& cache = te.engine().rtc();
  const Tree::MatchResult cached = cache.index().Match(keys);
  ASSERT_EQ(routed.path.size(), 1u);
  ASSERT_EQ(cached.path.size(), 1u);
  const rtc::Edge& routed_edge = routed.path.front()->edge;
  ASSERT_EQ(cached.path.front()->edge.size(), static_cast<size_t>(kBlocks));
  EXPECT_EQ(&cached.path.front()->edge.front(), &routed_edge.front())
      << "the RTC's node does not slice the JE's chain";

  // A later prompt that ends halfway through the run splits the RTC's node.
  // The tail re-slices the chain: the split allocates the tail node, the
  // head's one child entry and the tail's half of the run, and no key.
  const workload::Prompt half = MakeRequest(1, 16 * kBlocks / 2, 4).prompt;
  const rtc::KeyChain half_keys = rtc::KeyChain::Hash(half);
  auto blocks = cache.AllocBlocks(kBlocks / 2).value();
  const int64_t bytes = g_bytes;
  cache.Preserve(half, blocks, half_keys);
  const int64_t split = g_bytes - bytes;
  cache.Free(blocks);
  ASSERT_EQ(cache.index_nodes(), 2u);
  EXPECT_LE(split, static_cast<int64_t>(sizeof(Tree::Node) + sizeof(Tree::ChildMap::Entry) +
                                        kBlocks / 2 * sizeof(uint32_t)));
  const Tree::MatchResult resplit = cache.index().Match(keys);
  ASSERT_EQ(resplit.path.size(), 2u);
  EXPECT_EQ(&resplit.path.front()->edge.front(), &routed_edge.front());
  EXPECT_EQ(&resplit.path.back()->edge.front(), &routed_edge[kBlocks / 2])
      << "the split tail does not slice the JE's chain";
}

TEST(AllocTest, DispatchNeitherCopiesNorWrapsTheCallbacks) {
  // Callbacks that capture a shared_ptr do not fit std::function's inline
  // buffer: any copy or wrapper of them on the way down would allocate.
  auto fired = std::make_shared<int>(0);
  serving::ResponseHandler handler;
  handler.on_first_token = [fired](const flowserve::Sequence&) { ++*fired; };
  handler.on_complete = [fired](const flowserve::Sequence&) { ++*fired; };
  handler.on_error = [fired](const Status&) { ++*fired; };
  const DispatchCost with_callbacks = Dispatch(256, std::move(handler));
  const DispatchCost empty = Dispatch(256);
  EXPECT_EQ(with_callbacks.allocations, empty.allocations);
  EXPECT_EQ(*fired, 2);  // the first token and the completion
}

TEST(AllocTest, ControlLogAppendDoesNotAllocatePerRecord) {
  // Fixed-arity records go into the log's header vector and int arena, so N
  // appends allocate only at those two vectors' doublings, never per record.
  sim::Simulator sim;
  int64_t crashes = 0;
  int64_t failovers = 0;
  int64_t parked = 0;
  DurationNs outage = 0;
  ctrl::Leader<ctrl::TeDirectory> leader(&sim, nullptr, {&crashes, &failovers, &parked, &outage},
                                         {});
  constexpr int kRecords = 4096;  // 2^12
  const int64_t allocations = g_allocations;
  for (int i = 0; i < kRecords; ++i) {
    leader.Append(ctrl::TeDirectory::kReservePods, {1});
  }
  EXPECT_LE(g_allocations - allocations, 2 * 12 + 4);
  EXPECT_EQ(leader.state().prewarmed_pods(), kRecords);
  EXPECT_EQ(leader.log()->next_seq(), static_cast<uint64_t>(kRecords));
}

}  // namespace
}  // namespace deepserve
