// Relational Tensor Cache (RTC) master module (§4.3, Table 1).
//
// RTC unifies caching and memory management for the KV cache. The master
// (this class) owns all indexing and placement decisions:
//   * a block pool with per-tier (NPU / DRAM) capacity accounting;
//   * a hybrid index: radix tree over block-key chains (implicit prefix
//     caching) + an explicit ID index (DeepServe's context-caching endpoint);
//   * the populate path that fetches preserved KV from DRAM back into the
//     NPU, one transfer per populate;
//   * LRU eviction and a background swapper that demotes cold blocks to
//     DRAM so the synchronous allocation path stays fast. It
//     always runs: once NPU-block use reaches kSwapHighWatermark, a scan
//     kSwapInterval later demotes at most kSwapBatchBlocks cold blocks.
// The pool's NPU-tier count is the one ledger of HBM KV occupancy. Actual
// transfer *timing* is delegated to an injected TransferFn, which FlowServe
// wires to DistFlow.
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
// one per edge symbol, or none at all while the run is parked.
//
// A run holds every block or none. Every block a run holds is live: the RTC
// frees a run's blocks only in EnsureNpuFree pass 2, which removes the leaf
// with them (BlockPool::Destroy), and when it parks the whole run
// (BlockPool::Park). A cached block is never Unref'd to death (MarkCached
// precedes any Unref that could reach zero), so no slot can be freed, and
// then reused, under a run that still lists it. Anything that can outlive a
// block — a copy completion, the id and PIC indexes — checks each block's
// generation before touching it.
//
// Parked. A non-root run with no blocks is parked: every block in it is
// committed, unreferenced, unpinned, outside the id and PIC indexes, and
// resident only in DRAM, where it still counts. Its block count is its
// node's edge length. A match that reaches it gives it fresh slots first.
struct BlockRun {
  BlockTable blocks;

  bool parked() const { return blocks.empty(); }

  BlockRun SplitTail(size_t offset) {
    if (parked()) {
      return BlockRun{};  // both halves stay parked
    }
    return BlockRun{blocks.SplitTail(offset)};
  }
};
static_assert(sizeof(RadixTree<BlockRun>::Node) <= 144,
              "an RTC node keeps its edge and children out of line");

// Result of MatchByPrefixToken / MatchByID: which preserved blocks cover the
// request, and where they live. `npu_tokens` counts the leading contiguous
// run already NPU-resident; everything after it needs a Populate.
struct MatchInfo {
  int64_t matched_tokens = 0;
  int64_t npu_tokens = 0;
  int64_t offnpu_tokens = 0;
  BlockTable blocks;

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
  BlockTable blocks;
};

// (src tier, dst tier, bytes, completion). Installed by the engine; defaults
// to immediate completion so RTC unit-tests need no transfer fabric.
using TransferFn = std::function<void(Tier, Tier, Bytes, std::function<void()>)>;

struct RtcConfig {
  BlockPoolConfig pool;
  // Bytes of one block across the whole instance (all layers, all TP ranks);
  // sizes populate/swap transfers.
  Bytes bytes_per_block = 512 * 1024;
  // Position-independent caching (content-hash index alongside the tree).
  bool enable_pic = false;
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
  // Background swapper: a scan runs this long after NPU-block use reaches
  // the watermark, and demotes at most the batch of cold blocks to DRAM.
  static constexpr DurationNs kSwapInterval = MsToNs(50);
  static constexpr double kSwapHighWatermark = 0.85;
  static constexpr int64_t kSwapBatchBlocks = 64;

  RtcMaster(sim::Simulator* sim, RtcConfig config);

  RtcMaster(const RtcMaster&) = delete;
  RtcMaster& operator=(const RtcMaster&) = delete;

  void SetTransferFn(TransferFn fn) { transfer_ = std::move(fn); }

  // ---- Table 1: match APIs -------------------------------------------------
  // `keys` is `prompt`'s block-key chain (TokensToBlockKeys / KeyChain): the
  // caller hashes the prompt, once.
  MatchInfo MatchByPrefixToken(std::span<const TokenId> prompt, std::span<const BlockKey> keys);
  MatchInfo MatchByID(const std::string& id);

  // Position-independent lookup over the prompt's full blocks starting at
  // `skip_tokens` (the prefix-matched region). Only NPU-resident cached
  // blocks are returned (off-NPU PIC fetches are not worth their transfer).
  PicMatch MatchPositionIndependent(std::span<const TokenId> prompt, int64_t skip_tokens);

  // ---- Table 1: populate ---------------------------------------------------
  // Starts fetching `info`'s off-NPU blocks from DRAM into the NPU in one
  // transfer (async). The blocks must be pinned (Acquire) first so eviction
  // cannot race the fetch.
  [[nodiscard]] Result<PopulateTicket> Populate(const MatchInfo& info);
  // kInFlight while its transfer is outstanding, kReady for any other ticket
  // Populate returned, kUnknown for one it never returned.
  PopulateState QueryPopulate(PopulateTicket ticket) const;
  // Registers a one-shot callback fired when the ticket becomes ready (on the
  // next tick if it already is; an empty callback is ignored). This is how
  // the sched-enqueue thread "marks the request as ready" (§4.2) without
  // polling.
  void OnPopulateReady(PopulateTicket ticket, std::function<void()> callback);

  // Truncates a match to at most `max_tokens` (block-aligned), recomputing
  // the NPU-resident prefix split. Used when the populate cost model rejects
  // fetching the off-NPU tail.
  MatchInfo TruncateMatch(const MatchInfo& info, int64_t max_tokens) const;

  // ---- Table 1: block APIs -------------------------------------------------
  // Pins matched blocks for a sequence (one ref each).
  void Acquire(const BlockTable& blocks);
  // Allocates n fresh NPU blocks, evicting cold cache as needed, and appends
  // them to `*out` (a sequence's block table grows in place).
  [[nodiscard]] Status AllocBlocks(int64_t n, BlockTable* out);
  // By-value convenience for tests and benches.
  [[nodiscard]] Result<BlockTable> AllocBlocks(int64_t n);
  // Copies blocks to `dst` (timed through the TransferFn); used by explicit
  // checkpointing and by the background swapper. Blocks already on `dst`, or
  // that do not fit there, are skipped. `on_complete`, if set, fires once
  // the copy lands. Returns how many blocks it started copying.
  int64_t Copy(const BlockTable& blocks, Tier dst, std::function<void()> on_complete);
  // Releases a sequence's pins. Cached blocks stay preserved; private ones die.
  void Free(const BlockTable& blocks);

  // ---- preservation (cache commit) ----------------------------------------
  // Implicit prefix caching: indexes the sequence's full blocks under the
  // radix tree so future prompts can reuse them. `blocks` must cover at
  // least tokens.size()/kBlockTokens blocks. Duplicate spans (e.g. two
  // concurrent identical prefills) keep the first commit; later private
  // duplicates simply die on Free. `keys` is `tokens`' block-key chain, as
  // for MatchByPrefixToken; every node the commit creates slices it, so
  // the chain lives on with the cached blocks.
  void Preserve(std::span<const TokenId> tokens, const BlockTable& blocks, const KeyChain& keys);
  // Explicit context caching: additionally registers the prefix under `id`.
  [[nodiscard]] Status PreserveById(const std::string& id, std::span<const TokenId> tokens,
                                    const BlockTable& blocks, const KeyChain& keys);

  // ---- introspection -------------------------------------------------------
  const RtcConfig& config() const { return config_; }
  const RtcStats& stats() const { return stats_; }
  const BlockPool& pool() const { return pool_; }
  int64_t npu_blocks_used() const { return pool_.used(Tier::kNpu); }
  int64_t npu_blocks_free() const { return pool_.free_blocks(Tier::kNpu); }
  size_t index_nodes() const { return tree_.NodeCount(); }
  const RadixTree<BlockRun>& index() const { return tree_; }

  // Frees at least `n` NPU block slots by demoting/discarding cold cache.
  [[nodiscard]] Status EnsureNpuFree(int64_t n);

 private:
  using Tree = RadixTree<BlockRun>;

  // Counts the NPU-resident prefix of `blocks` into npu/offnpu tokens.
  MatchInfo BuildMatchInfo(BlockTable blocks, int64_t matched_tokens) const;
  // Whether `pred(info)` holds for every block of `blocks`.
  template <typename Pred>
  bool AllOf(const BlockTable& blocks, Pred pred) const {
    for (const Extent& extent : blocks.extents()) {
      if (pool_.CountWhile(extent, pred) < extent.count) {
        return false;
      }
    }
    return true;
  }
  // DS_CHECKs that `keys` is a full chain of `tokens`.
  static void CheckChain(std::span<const TokenId> tokens, std::span<const BlockKey> keys);
  void MaybeArmSwap();
  void SwapScan();
  // Parks `node`'s run if every block in it is parkable (see BlockRun);
  // returns whether the run is parked now.
  bool MaybePark(Tree::Node& node);
  // Gives a parked run one fresh block slot per edge symbol.
  void Unpark(Tree::Node& node);

  sim::Simulator* sim_;
  RtcConfig config_;
  BlockPool pool_;
  Tree tree_;
  // Explicit entries: each id's blocks, one per full kBlockTokens-token chunk.
  std::unordered_map<std::string, BlockTable> id_index_;
  // Content-hash (position-independent) index; stale entries from evicted
  // blocks are pruned lazily on lookup.
  std::unordered_map<BlockKey, BlockId> pic_index_;
  TransferFn transfer_;

  PopulateTicket next_ticket_ = 1;
  // In-flight tickets only, each with its OnPopulateReady callback (empty
  // until one is registered); a returned ticket absent here has landed (or
  // never needed a transfer).
  std::unordered_map<PopulateTicket, std::function<void()>> inflight_populates_;
  std::vector<Tree::Node*> swap_victims_;  // SwapScan's victim list, reused
  Tree::MatchResult match_;                 // MatchByPrefixToken's, path reused

  RtcStats stats_;
  bool swap_armed_ = false;
  obs::LazyTrack track_{"rtc", {"cache"}};
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RTC_MASTER_H_
