#include "hw/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace deepserve::hw {

namespace {

// "m<machine>.<link>", assembled by appending: GCC 12 at -O3 reports a false
// -Wrestrict overlap inside `"m" + std::to_string(machine)`, and -Werror
// makes it fatal.
std::string LinkName(MachineId machine, std::string_view link) {
  std::string name = "m";
  name += std::to_string(machine);
  name += '.';
  name += link;
  return name;
}

}  // namespace

bool ClusterConfig::heterogeneous() const {
  for (const NpuSpec& spec : machine_specs) {
    if (spec.name != machine_specs.front().name) {
      return true;
    }
  }
  return false;
}

Status ClusterConfig::Validate() const {
  if (num_machines <= 0 || npus_per_machine <= 0 || npus_per_pcie_link <= 0 ||
      machines_per_scaleup_domain <= 0) {
    return InvalidArgumentError("cluster counts must be positive");
  }
  if (npus_per_machine % npus_per_pcie_link != 0) {
    return InvalidArgumentError(
        "npus_per_machine (" + std::to_string(npus_per_machine) +
        ") not divisible by npus_per_pcie_link (" + std::to_string(npus_per_pcie_link) + ")");
  }
  if (!machine_specs.empty() &&
      static_cast<int>(machine_specs.size()) != num_machines) {
    return InvalidArgumentError("machine_specs covers " +
                                std::to_string(machine_specs.size()) + " machines, cluster has " +
                                std::to_string(num_machines));
  }
  for (const NpuSpec& spec : machine_specs) {
    if (spec.hbm_capacity == 0 || spec.tflops_fp16 <= 0 || spec.hbm_bandwidth_gbps <= 0 ||
        spec.cost_per_hour <= 0) {
      return InvalidArgumentError("degenerate NpuSpec '" + spec.name + "' in machine_specs");
    }
  }
  // Checked whether or not the SuperPod tier is on, so a bad --ub-gbps never
  // hides behind a disabled fabric.
  if (pcie_gbps <= 0 || ssd_gbps <= 0 || hccs_gbps <= 0 || roce_gbps <= 0 || ub_gbps <= 0) {
    return InvalidArgumentError("link bandwidths must be positive");
  }
  if (machines_per_superpod < 0) {
    return InvalidArgumentError("machines_per_superpod must be >= 0");
  }
  if (enable_superpod && machines_per_superpod > 0 &&
      machines_per_superpod % machines_per_scaleup_domain != 0) {
    // A scale-up domain straddling two SuperPods would make the HCCS/UB
    // tiering ambiguous.
    return InvalidArgumentError("machines_per_superpod (" +
                                std::to_string(machines_per_superpod) +
                                ") not divisible by machines_per_scaleup_domain (" +
                                std::to_string(machines_per_scaleup_domain) + ")");
  }
  return Status::Ok();
}

Result<std::vector<NpuSpec>> ParseNpuMix(const std::string& mix) {
  std::vector<NpuSpec> specs;
  size_t pos = 0;
  while (pos <= mix.size()) {
    size_t comma = mix.find(',', pos);
    std::string group = mix.substr(pos, comma == std::string::npos ? comma : comma - pos);
    size_t colon = group.find(':');
    if (group.empty() || colon == std::string::npos) {
      return InvalidArgumentError("npu-mix group '" + group + "' is not gen:count");
    }
    std::string gen = group.substr(0, colon);
    std::string count_str = group.substr(colon + 1);
    NpuSpec spec;
    if (gen == "gen1") {
      spec = NpuSpec::Gen1();
    } else if (gen == "gen2") {
      spec = NpuSpec::Gen2();
    } else {
      return InvalidArgumentError("unknown NPU generation '" + gen + "' (gen1|gen2)");
    }
    if (count_str.empty() ||
        count_str.find_first_not_of("0123456789") != std::string::npos) {
      return InvalidArgumentError("npu-mix count '" + count_str + "' is not a number");
    }
    int count = std::atoi(count_str.c_str());
    if (count <= 0) {
      return InvalidArgumentError("npu-mix count must be positive in '" + group + "'");
    }
    for (int i = 0; i < count; ++i) {
      specs.push_back(spec);
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (specs.empty()) {
    return InvalidArgumentError("empty npu-mix");
  }
  return specs;
}

bool PageCache::Insert(const std::string& key, Bytes bytes, TimeNs now) {
  if (bytes > capacity_) {
    return false;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_used = now;
    return true;
  }
  if (used_ + bytes > capacity_) {
    EvictUntilFits(bytes);
  }
  entries_[key] = Entry{bytes, now};
  used_ += bytes;
  return true;
}

void PageCache::EvictUntilFits(Bytes needed) {
  while (used_ + needed > capacity_ && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    used_ -= victim->second.bytes;
    entries_.erase(victim);
  }
}

void PageCache::Touch(const std::string& key, TimeNs now) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_used = now;
  }
}

void PageCache::Erase(const std::string& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_ -= it->second.bytes;
    entries_.erase(it);
  }
}

Machine::Machine(sim::Simulator* sim, MachineId id, const ClusterConfig& config)
    : id_(id), page_cache_(config.dram_capacity),
      npus_per_pcie_link_(config.npus_per_pcie_link) {
  DS_CHECK_GT(npus_per_pcie_link_, 0);
  int num_pcie = (config.npus_per_machine + npus_per_pcie_link_ - 1) / npus_per_pcie_link_;
  for (int i = 0; i < num_pcie; ++i) {
    std::string name = LinkName(id, "pcie");
    name += std::to_string(i);
    pcie_links_.push_back(std::make_unique<SharedLink>(sim, name, LinkType::kPcie,
                                                       config.pcie_gbps * 1e9,
                                                       config.pcie_latency));
  }
  ssd_link_ = std::make_unique<SharedLink>(sim, LinkName(id, "ssd"), LinkType::kSsd,
                                           config.ssd_gbps * 1e9, config.ssd_latency);
}

SharedLink* Machine::pcie_link_for(int local_npu_index) {
  size_t idx = static_cast<size_t>(local_npu_index / npus_per_pcie_link_);
  DS_CHECK_LT(idx, pcie_links_.size());
  return pcie_links_[idx].get();
}

Cluster::Cluster(sim::Simulator* sim, ClusterConfig config)
    : sim_(sim), config_(std::move(config)) {
  DS_CHECK(sim != nullptr);
  Status valid = config_.Validate();
  DS_CHECK(valid.ok()) << valid.ToString();
  for (int m = 0; m < config_.num_machines; ++m) {
    machines_.push_back(std::make_unique<Machine>(sim, m, config_));
    hccs_links_.push_back(std::make_unique<SharedLink>(
        sim, LinkName(m, "hccs"), LinkType::kHccs, config_.hccs_gbps * 1e9,
        config_.hccs_latency));
    roce_links_.push_back(std::make_unique<SharedLink>(
        sim, LinkName(m, "roce"), LinkType::kRoce, config_.roce_gbps * 1e9,
        config_.roce_latency));
    if (config_.enable_superpod) {
      ub_links_.push_back(std::make_unique<SharedLink>(
          sim, LinkName(m, "ub"), LinkType::kUb, config_.ub_gbps * 1e9, config_.ub_latency));
    }
  }
}

bool Cluster::SameScaleUpDomain(NpuId a, NpuId b) const {
  MachineId ma = machine_of(a);
  MachineId mb = machine_of(b);
  return ma / config_.machines_per_scaleup_domain == mb / config_.machines_per_scaleup_domain;
}

bool Cluster::SameSuperPod(NpuId a, NpuId b) const {
  if (config_.machines_per_superpod <= 0) {
    return true;  // the whole cluster is one SuperPod
  }
  MachineId ma = machine_of(a);
  MachineId mb = machine_of(b);
  return ma / config_.machines_per_superpod == mb / config_.machines_per_superpod;
}

SharedLink* Cluster::InterNpuLink(NpuId src, NpuId dst) {
  MachineId sm = machine_of(src);
  if (SameScaleUpDomain(src, dst)) {
    return hccs_links_[static_cast<size_t>(sm)].get();
  }
  if (config_.enable_superpod && SameSuperPod(src, dst)) {
    return ub_links_[static_cast<size_t>(sm)].get();
  }
  return roce_links_[static_cast<size_t>(sm)].get();
}

SharedLink* Cluster::LinkOfType(MachineId machine, LinkType type) {
  switch (type) {
    case LinkType::kHccs:
    case LinkType::kMemcpy:
      return hccs_links_[static_cast<size_t>(machine)].get();
    case LinkType::kRoce:
      return roce_links_[static_cast<size_t>(machine)].get();
    case LinkType::kPcie:
      return machines_[static_cast<size_t>(machine)]->pcie_link_for(0);
    case LinkType::kSsd:
      return machines_[static_cast<size_t>(machine)]->ssd_link();
    case LinkType::kUb:
      return ub_link(machine);  // nullptr unless the SuperPod tier is built
  }
  return nullptr;
}

}  // namespace deepserve::hw
