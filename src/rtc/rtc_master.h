// Relational Tensor Cache (RTC) master module (§4.3, Table 1).
//
// RTC unifies caching and memory management for the KV cache. The master
// (this class) owns all indexing and placement decisions:
//   * a block pool with per-tier (NPU / DRAM / SSD) capacity accounting;
//   * a hybrid index: radix tree over block-key chains (implicit prefix
//     caching) + an explicit ID index (DeepServe's context-caching endpoint);
//   * the populate path that fetches preserved KV back into the NPU;
//   * LRU eviction and a background swapper that demotes cold blocks down
//     the tier hierarchy so the synchronous allocation path stays fast.
// Per-NPU RtcExecutors mirror the master's NPU-block decisions onto their
// devices (master-executor SPMD, §4.1). Actual transfer *timing* is
// delegated to an injected TransferFn, which FlowServe wires to DistFlow.
#ifndef DEEPSERVE_RTC_RTC_MASTER_H_
#define DEEPSERVE_RTC_RTC_MASTER_H_

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "sim/simulator.h"

namespace deepserve::rtc {

// Payload of one radix-tree node: the cached blocks covering its edge span,
// one BlockPool slot index per edge symbol (BlockPool::IdAt rebuilds the id),
// or none at all while the run is parked.
//
// A run holds a live slot for every block or for none. A run stores 4-byte
// slot indices rather than 8-byte ids because every slot it holds is live:
// the RTC frees a run's slots only in EnsureNpuFree pass 2, which removes the
// leaf with them (BlockPool::Destroy), and when it parks the whole run
// (BlockPool::Park). A cached block is never Unref'd to death (MarkCached
// precedes any Unref that could reach zero), so no slot can be freed, and
// then reused, under a run that still lists it. Anything that can outlive a
// block — MatchInfo, a sequence's block table, the id and PIC indexes — keeps
// full BlockIds and their generation check.
//
// Parked. A non-root run with no entries is parked: every block in it is
// committed, unreferenced, unpinned, outside the id and PIC indexes, and
// resident only in DRAM, where it still counts. Its block count is its
// node's edge length. A match that reaches it gives it fresh slots first.
struct BlockRun {
  std::vector<uint32_t> blocks;

  bool parked() const { return blocks.empty(); }

  BlockRun SplitTail(size_t offset) {
    BlockRun tail;
    if (parked()) {
      return tail;  // both halves stay parked
    }
    tail.blocks.assign(blocks.begin() + static_cast<ptrdiff_t>(offset), blocks.end());
    blocks.resize(offset);
    return tail;
  }
};

// Result of MatchByPrefixToken / MatchByID: which preserved blocks cover the
// request, and where they live. `npu_tokens` counts the leading contiguous
// run already NPU-resident; everything after it needs a Populate.
struct MatchInfo {
  int64_t matched_tokens = 0;
  int64_t npu_tokens = 0;
  int64_t offnpu_tokens = 0;
  std::vector<BlockId> blocks;

  bool hit() const { return matched_tokens > 0; }
  bool needs_populate() const { return offnpu_tokens > 0; }
};

using PopulateTicket = uint64_t;
enum class PopulateState { kUnknown, kInFlight, kReady };

// Position-independent match (EPIC-style, §4.3): cached blocks found by
// content anywhere in the prompt beyond the prefix-matched region. Reusing
// them requires recomputing a small boundary fraction, so the engine treats
// PIC reuse as a prefill-compute discount rather than skipped tokens.
struct PicMatch {
  int64_t matched_tokens = 0;
  std::vector<BlockId> blocks;
};

// (src tier, dst tier, bytes, completion). Installed by the engine; defaults
// to immediate completion so RTC unit-tests need no transfer fabric.
using TransferFn = std::function<void(Tier, Tier, Bytes, std::function<void()>)>;

// Mirrors master NPU-block deltas onto a device (see RtcExecutor).
class NpuBlockListener {
 public:
  virtual ~NpuBlockListener() = default;
  virtual void OnNpuBlocksChanged(int64_t delta_blocks) = 0;
};

struct RtcConfig {
  int block_size = 16;  // tokens per KV block
  BlockPoolConfig pool;
  // Bytes of one block across the whole instance (all layers, all TP ranks);
  // sizes populate/swap transfers.
  Bytes bytes_per_block = 512 * 1024;
  // Position-independent caching (content-hash index alongside the tree).
  bool enable_pic = false;
  bool enable_background_swap = true;
  DurationNs swap_interval = MsToNs(50);
  // Start demoting NPU->DRAM above this NPU-block usage fraction.
  double swap_high_watermark = 0.85;
  // Demote at most this many blocks per swap scan.
  int64_t swap_batch_blocks = 64;
};

struct RtcStats {
  int64_t match_hits = 0;
  int64_t match_misses = 0;
  int64_t matched_tokens = 0;
  int64_t requested_tokens = 0;
  int64_t pic_hits = 0;
  int64_t pic_matched_tokens = 0;
  int64_t populates = 0;
  int64_t populated_blocks = 0;
  int64_t evicted_blocks = 0;    // NPU residency drops under pressure
  int64_t discarded_blocks = 0;  // cache entries lost entirely
  int64_t swapped_out_blocks = 0;  // blocks whose NPU->DRAM demotion started
  // Leaves the background swap scans examined (host cost; leaves retired as
  // fully demoted are not examined again).
  int64_t swap_scan_leaves = 0;
  int64_t parked_blocks = 0;    // blocks whose slot a parked run gave up
  int64_t unparked_blocks = 0;  // blocks a match gave a fresh slot again

  double TokenHitRate() const {
    return requested_tokens > 0
               ? static_cast<double>(matched_tokens) / static_cast<double>(requested_tokens)
               : 0.0;
  }
};

class RtcMaster {
 public:
  RtcMaster(sim::Simulator* sim, RtcConfig config);

  RtcMaster(const RtcMaster&) = delete;
  RtcMaster& operator=(const RtcMaster&) = delete;

  void SetTransferFn(TransferFn fn) { transfer_ = std::move(fn); }
  void AddListener(NpuBlockListener* listener) { listeners_.push_back(listener); }

  // ---- Table 1: match APIs -------------------------------------------------
  // `keys` is `prompt`'s block-key chain at this cache's block size
  // (TokensToBlockKeys / KeyChain): the caller hashes the prompt, once.
  MatchInfo MatchByPrefixToken(std::span<const TokenId> prompt, std::span<const BlockKey> keys);
  MatchInfo MatchByID(const std::string& id);

  // Position-independent lookup over the prompt's full blocks starting at
  // `skip_tokens` (the prefix-matched region). Only NPU-resident cached
  // blocks are returned (off-NPU PIC fetches are not worth their transfer).
  PicMatch MatchPositionIndependent(std::span<const TokenId> prompt, int64_t skip_tokens);

  // ---- Table 1: populate ---------------------------------------------------
  // Starts fetching `info`'s off-NPU blocks into the NPU (async). The blocks
  // must be pinned (Acquire) first so eviction cannot race the fetch.
  [[nodiscard]] Result<PopulateTicket> Populate(const MatchInfo& info);
  PopulateState QueryPopulate(PopulateTicket ticket) const;
  // Registers a one-shot callback fired when the ticket becomes ready (fires
  // immediately if it already is). This is how the sched-enqueue thread
  // "marks the request as ready" (§4.2) without polling.
  void OnPopulateReady(PopulateTicket ticket, std::function<void()> callback);

  // Truncates a match to at most `max_tokens` (block-aligned), recomputing
  // the NPU-resident prefix split. Used when the populate cost model rejects
  // fetching the off-NPU tail.
  MatchInfo TruncateMatch(const MatchInfo& info, int64_t max_tokens) const;

  // ---- Table 1: block APIs -------------------------------------------------
  // Pins matched blocks for a sequence (one ref each).
  void Acquire(std::span<const BlockId> blocks);
  // Allocates n fresh NPU blocks, evicting cold cache as needed, and appends
  // their ids to `*out` (a sequence's block table grows in place).
  [[nodiscard]] Status AllocBlocks(int64_t n, std::vector<BlockId>* out);
  // By-value convenience for tests and benches.
  [[nodiscard]] Result<std::vector<BlockId>> AllocBlocks(int64_t n);
  // Copies blocks to `dst` (timed through the TransferFn); used by explicit
  // checkpointing and by the background swapper. Blocks already on `dst`, or
  // that do not fit there, are skipped. Returns how many blocks it started
  // copying.
  int64_t Copy(std::span<const BlockId> blocks, Tier dst, std::function<void()> on_complete);
  // Releases a sequence's pins. Cached blocks stay preserved; private ones die.
  void Free(std::span<const BlockId> blocks);

  // ---- preservation (cache commit) ----------------------------------------
  // Implicit prefix caching: indexes the sequence's full blocks under the
  // radix tree so future prompts can reuse them. `blocks` must cover at
  // least tokens.size()/block_size entries. Duplicate spans (e.g. two
  // concurrent identical prefills) keep the first commit; later private
  // duplicates simply die on Free. `keys` is `tokens`' block-key chain, as
  // for MatchByPrefixToken.
  void Preserve(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                std::span<const BlockKey> keys);
  // Explicit context caching: additionally registers the prefix under `id`.
  [[nodiscard]] Status PreserveById(const std::string& id, std::span<const TokenId> tokens,
                                    std::span<const BlockId> blocks,
                                    std::span<const BlockKey> keys);
  bool DropById(const std::string& id);

  // ---- introspection -------------------------------------------------------
  const RtcConfig& config() const { return config_; }
  const RtcStats& stats() const { return stats_; }
  const BlockPool& pool() const { return pool_; }
  int64_t npu_blocks_used() const { return pool_.used(Tier::kNpu); }
  int64_t npu_blocks_free() const { return pool_.free_blocks(Tier::kNpu); }
  size_t index_nodes() const { return tree_.NodeCount(); }
  // Deterministic snapshot of the explicit context cache: (id, cached token
  // count) sorted by id. The backing index is an unordered_map, so callers
  // (dumps, audits, tests) must come through this sorted view rather than
  // iterate it directly — see common/sorted_view.h and ds_lint rule
  // `unordered-iter`.
  std::vector<std::pair<std::string, int64_t>> CacheEntries() const;

  // Frees at least `n` NPU block slots by demoting/discarding cold cache.
  [[nodiscard]] Status EnsureNpuFree(int64_t n);

 private:
  using Tree = RadixTree<BlockRun>;

  // Counts the NPU-resident prefix of `blocks` into npu/offnpu tokens.
  MatchInfo BuildMatchInfo(std::vector<BlockId> blocks, int64_t matched_tokens) const;
  // Lazily registers this cache's trace track; -1 when tracing is disabled.
  int TracePid();
  // DS_CHECKs that `keys` is a full chain of `tokens` at this block size.
  void CheckChain(std::span<const TokenId> tokens, std::span<const BlockKey> keys) const;
  // `keys` is `tokens`' full block-key chain.
  void CommitBlocks(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                    std::span<const BlockKey> keys);
  void SyncListeners();
  void MaybeArmSwap();
  void SwapScan();
  // Appends the full ids of the blocks in a run's `slots` to `*out`.
  void AppendIds(std::span<const uint32_t> slots, std::vector<BlockId>* out) const;
  // Parks `node`'s run if every block in it is parkable (see BlockRun);
  // returns whether the run is parked now.
  bool MaybePark(Tree::Node& node);
  // Gives a parked run one fresh slot per edge symbol.
  void Unpark(Tree::Node& node);
  Tier LowestTierBelowNpu(const BlockInfo& info) const;

  sim::Simulator* sim_;
  RtcConfig config_;
  BlockPool pool_;
  Tree tree_;
  std::unordered_map<std::string, std::vector<BlockId>> id_index_;
  std::unordered_map<std::string, int64_t> id_tokens_;
  // Content-hash (position-independent) index; stale entries from evicted
  // blocks are pruned lazily on lookup.
  std::unordered_map<BlockKey, BlockId> pic_index_;
  TransferFn transfer_;
  std::vector<NpuBlockListener*> listeners_;

  PopulateTicket next_ticket_ = 1;
  std::unordered_map<PopulateTicket, int> inflight_populates_;  // remaining groups
  std::unordered_map<PopulateTicket, std::function<void()>> populate_callbacks_;
  std::vector<Tree::Node*> swap_victims_;  // SwapScan's victim list, reused

  RtcStats stats_;
  int64_t last_npu_used_ = 0;
  bool swap_armed_ = false;
  int trace_pid_ = -1;
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RTC_MASTER_H_
