// Datacenter topology of the paper's testbed (Section V-A, Figure 4):
// 20 physical servers x 40 VMs = 800 VMs; every server runs one monitor per
// VM inside Dom0.
//
// The topology is pure bookkeeping, consumed by the datacenter-scale
// example (its VM count) and the Figure 6 bench (VMs per host).
#pragma once

#include <cstddef>
#include <stdexcept>

namespace volley {

struct DatacenterOptions {
  std::size_t hosts{20};
  std::size_t vms_per_host{40};

  void validate() const {
    if (hosts == 0) throw std::invalid_argument("Datacenter: hosts > 0");
    if (vms_per_host == 0)
      throw std::invalid_argument("Datacenter: vms_per_host > 0");
  }
};

class Datacenter {
 public:
  Datacenter() : Datacenter(DatacenterOptions{}) {}
  explicit Datacenter(const DatacenterOptions& options) : options_(options) {
    options_.validate();
  }

  std::size_t vm_count() const { return options_.hosts * options_.vms_per_host; }

  const DatacenterOptions& options() const { return options_; }

 private:
  DatacenterOptions options_;
};

}  // namespace volley
