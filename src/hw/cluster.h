// Cluster topology: machines (8 NPUs each, DRAM page cache, SSD, shared PCIe
// links) connected by HCCS scale-up domains and a RoCE scale-out fabric.
//
// The topology answers two questions for higher layers:
//   1. which SharedLink carries a transfer between two endpoints, and
//   2. what DRAM/page-cache/SSD state a machine has (for model pre-loading).
#ifndef DEEPSERVE_HW_CLUSTER_H_
#define DEEPSERVE_HW_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "hw/link.h"
#include "hw/npu.h"
#include "sim/simulator.h"

namespace deepserve::hw {

struct ClusterConfig {
  NpuSpec npu_spec = NpuSpec::Gen2();
  // Heterogeneous fleets: one spec per machine, front-loaded by group (e.g.
  // the result of ParseNpuMix("gen1:2,gen2:2")). Empty = every machine runs
  // npu_spec — the homogeneous path, bit-identical to pre-heterogeneity runs.
  std::vector<NpuSpec> machine_specs;
  int num_machines = 4;
  int npus_per_machine = 8;
  // Two NPUs share one PCIe root link (source of the TP-rank contention the
  // paper reports in Fig. 9).
  int npus_per_pcie_link = 2;
  // Machines within the same scale-up domain are connected pairwise by HCCS;
  // everything else goes over RoCE.
  int machines_per_scaleup_domain = 4;

  // SuperPod scale-up tier (CloudMatrix-class unified bus): when enabled,
  // machines in the same SuperPod but different HCCS domains talk over a
  // per-machine UB attachment — bandwidth above HCCS — instead of dropping
  // all the way to RoCE.
  bool enable_superpod = false;
  int machines_per_superpod = 0;  // 0 = the whole cluster is one SuperPod
  double ub_gbps = 196.0;
  DurationNs ub_latency = UsToNs(4);

  Bytes dram_capacity = 1536ull << 30;  // 1.5 TB, as in the paper
  double pcie_gbps = 32.0;              // PCIe 4.0 x16 per direction
  double ssd_gbps = 3.0;
  double hccs_gbps = 90.0;   // scale-up link
  double roce_gbps = 20.0;   // ~200 Gb/s NIC after protocol overhead

  DurationNs pcie_latency = UsToNs(5);
  DurationNs ssd_latency = UsToNs(80);
  DurationNs hccs_latency = UsToNs(10);
  DurationNs roce_latency = UsToNs(25);

  // The spec a machine's NPUs are built from (npu_spec unless machine_specs
  // assigns a per-machine generation).
  const NpuSpec& spec_for_machine(MachineId m) const {
    return machine_specs.empty() ? npu_spec : machine_specs[static_cast<size_t>(m)];
  }
  // True when at least two machines would run different generations.
  bool heterogeneous() const;
  // Structural sanity: positive counts, npus_per_machine divisible by
  // npus_per_pcie_link, machine_specs (when present) sized num_machines with
  // non-degenerate specs, positive link bandwidths (UB included), SuperPods
  // aligned to scale-up domains.
  [[nodiscard]] Status Validate() const;
};

// Parses the --npu-mix grammar: comma-separated "gen:count" groups, e.g.
// "gen1:2,gen2:2" = two Gen1 machines then two Gen2 machines (generation
// names: gen1|gen2). Returns one NpuSpec per machine; INVALID_ARGUMENT on a
// malformed mix (unknown generation, non-positive or non-numeric count,
// empty group).
[[nodiscard]] Result<std::vector<NpuSpec>> ParseNpuMix(const std::string& mix);

// DRAM page cache tracking which model files (by name) are resident. Used by
// the DRAM pre-loading optimization: a "DRAM-hit" model load streams from the
// page cache over PCIe; a miss streams from SSD.
class PageCache {
 public:
  explicit PageCache(Bytes capacity) : capacity_(capacity) {}

  // Inserts (or refreshes) an entry, evicting least-recently-used entries if
  // needed. Returns false if the object alone exceeds capacity.
  bool Insert(const std::string& key, Bytes bytes, TimeNs now);
  bool Contains(const std::string& key) const { return entries_.count(key) > 0; }
  void Touch(const std::string& key, TimeNs now);
  void Erase(const std::string& key);

  Bytes used() const { return used_; }
  Bytes capacity() const { return capacity_; }

 private:
  struct Entry {
    Bytes bytes;
    TimeNs last_used;
  };
  void EvictUntilFits(Bytes needed);

  Bytes capacity_;
  Bytes used_ = 0;
  std::map<std::string, Entry> entries_;
};

// A host machine: per-pair PCIe links for its NPUs, one SSD link, DRAM page
// cache.
class Machine {
 public:
  Machine(sim::Simulator* sim, MachineId id, const ClusterConfig& config);

  MachineId id() const { return id_; }

  // The PCIe link serving a given local NPU index (shared between pairs).
  SharedLink* pcie_link_for(int local_npu_index);
  SharedLink* ssd_link() { return ssd_link_.get(); }
  PageCache& page_cache() { return page_cache_; }
  const PageCache& page_cache() const { return page_cache_; }

 private:
  MachineId id_;
  std::vector<std::unique_ptr<SharedLink>> pcie_links_;
  std::unique_ptr<SharedLink> ssd_link_;
  PageCache page_cache_;
  int npus_per_pcie_link_;
};

// The whole cluster. NPU ids are global and dense:
// npu_id = machine * npus_per_machine + local_index.
class Cluster {
 public:
  Cluster(sim::Simulator* sim, ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  sim::Simulator* simulator() { return sim_; }

  int num_machines() const { return static_cast<int>(machines_.size()); }
  Machine* machine(MachineId id) { return machines_[static_cast<size_t>(id)].get(); }
  MachineId machine_of(NpuId id) const {
    return id / config_.npus_per_machine;
  }
  int total_npus() const { return num_machines() * config_.npus_per_machine; }

  bool SameScaleUpDomain(NpuId a, NpuId b) const;
  bool SameSuperPod(NpuId a, NpuId b) const;

  // The generation actually installed at a placement — what cost-aware
  // layers consult instead of the cluster-wide default.
  const NpuSpec& spec_of_machine(MachineId m) const { return config_.spec_for_machine(m); }
  const NpuSpec& spec_of(NpuId id) const { return config_.spec_for_machine(machine_of(id)); }
  bool heterogeneous() const { return config_.heterogeneous(); }

  // The NPU-to-NPU link used for a p2p transfer between two NPUs: the
  // machine's HCCS egress if both sit in one scale-up domain; else the UB
  // attachment if the SuperPod tier is enabled and both sit in one SuperPod;
  // otherwise the source machine's RoCE NIC. Same-machine transfers use HCCS.
  SharedLink* InterNpuLink(NpuId src, NpuId dst);
  // Explicit-backend variant (NPU-fork benchmarks force HCCS vs RoCE vs UB).
  SharedLink* LinkOfType(MachineId machine, LinkType type);

  SharedLink* hccs_link(MachineId machine) { return hccs_links_[static_cast<size_t>(machine)].get(); }
  SharedLink* roce_link(MachineId machine) { return roce_links_[static_cast<size_t>(machine)].get(); }
  // The machine's UB attachment; nullptr unless enable_superpod.
  SharedLink* ub_link(MachineId machine) {
    return ub_links_.empty() ? nullptr : ub_links_[static_cast<size_t>(machine)].get();
  }

 private:
  sim::Simulator* sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<Machine>> machines_;
  // Per-machine fabric egress links.
  std::vector<std::unique_ptr<SharedLink>> hccs_links_;
  std::vector<std::unique_ptr<SharedLink>> roce_links_;
  std::vector<std::unique_ptr<SharedLink>> ub_links_;  // empty unless superpod
};

}  // namespace deepserve::hw

#endif  // DEEPSERVE_HW_CLUSTER_H_
