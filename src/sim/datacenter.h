// Datacenter topology of the paper's testbed (Section V-A, Figure 4):
// 20 physical servers x 40 VMs = 800 VMs; every server runs one monitor per
// VM inside Dom0; one coordinator serves every 5 physical servers.
//
// The topology is pure bookkeeping — placement and addressing — consumed by
// the datacenter-scale example, the Figure 6 bench (per-host utilization
// aggregation) and the socket runtime's address assignment.
#pragma once

#include <cstddef>
#include <stdexcept>

namespace volley {

struct DatacenterOptions {
  std::size_t hosts{20};
  std::size_t vms_per_host{40};
  std::size_t hosts_per_coordinator{5};

  void validate() const {
    if (hosts == 0) throw std::invalid_argument("Datacenter: hosts > 0");
    if (vms_per_host == 0)
      throw std::invalid_argument("Datacenter: vms_per_host > 0");
    if (hosts_per_coordinator == 0)
      throw std::invalid_argument("Datacenter: hosts_per_coordinator > 0");
  }
};

class Datacenter {
 public:
  Datacenter() : Datacenter(DatacenterOptions{}) {}
  explicit Datacenter(const DatacenterOptions& options) : options_(options) {
    options_.validate();
  }

  std::size_t host_count() const { return options_.hosts; }
  std::size_t vm_count() const { return options_.hosts * options_.vms_per_host; }
  std::size_t coordinator_count() const {
    return (options_.hosts + options_.hosts_per_coordinator - 1) /
           options_.hosts_per_coordinator;
  }

  std::size_t host_of_vm(std::size_t vm) const {
    check_vm(vm);
    return vm / options_.vms_per_host;
  }
  std::size_t coordinator_of_host(std::size_t host) const {
    check_host(host);
    return host / options_.hosts_per_coordinator;
  }

  const DatacenterOptions& options() const { return options_; }

 private:
  void check_vm(std::size_t vm) const {
    if (vm >= vm_count()) throw std::out_of_range("Datacenter: vm id");
  }
  void check_host(std::size_t host) const {
    if (host >= host_count()) throw std::out_of_range("Datacenter: host id");
  }

  DatacenterOptions options_;
};

}  // namespace volley
