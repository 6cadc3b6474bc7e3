#include "sim/topology.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dht::sim {

namespace {

// Parses a sysfs cpulist ("0-3,8,10-11") into CPU ids; returns an empty
// vector on malformed input, which callers treat as detection failure.
std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream stream(list);
  std::string range;
  while (std::getline(stream, range, ',')) {
    if (range.empty()) {
      continue;
    }
    const std::size_t dash = range.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(range));
      } else {
        const int lo = std::stoi(range.substr(0, dash));
        const int hi = std::stoi(range.substr(dash + 1));
        if (lo > hi || hi - lo > 4096) {
          return {};
        }
        for (int cpu = lo; cpu <= hi; ++cpu) {
          cpus.push_back(cpu);
        }
      }
    } catch (...) {
      return {};
    }
  }
  return cpus;
}

Topology detect_topology() {
  Topology topo;
#if defined(__linux__)
  // One node directory per NUMA node; nodes are numbered densely from 0 on
  // every kernel we care about, so probe upward until the first gap.
  for (int node = 0; node < 256; ++node) {
    std::ifstream cpulist("/sys/devices/system/node/node" +
                          std::to_string(node) + "/cpulist");
    if (!cpulist.is_open()) {
      break;
    }
    std::string line;
    std::getline(cpulist, line);
    std::vector<int> cpus = parse_cpulist(line);
    if (!cpus.empty()) {
      topo.node_cpus.push_back(std::move(cpus));
    }
  }
#endif
  if (topo.node_cpus.empty()) {
    // Fallback: one node spanning hardware_concurrency CPUs (at least one).
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<int> cpus;
    for (unsigned cpu = 0; cpu < (hw == 0 ? 1 : hw); ++cpu) {
      cpus.push_back(static_cast<int>(cpu));
    }
    topo.node_cpus.push_back(std::move(cpus));
  }
  return topo;
}

}  // namespace

const Topology& topology() {
  static const Topology topo = detect_topology();
  return topo;
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace dht::sim
