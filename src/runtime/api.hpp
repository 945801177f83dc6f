// Bare-metal driver variant (paper Section V: "Linux and bare-metal
// drivers ... a user-space API to expose DPR services to applications").
//
// The Linux path's user-space API is the ReconfigurationManager's public
// methods: applications register their partial bitstreams with the
// BitstreamStore, then invoke accelerators by (tile, module) through the
// manager, which handles locking, reconfiguration scheduling and driver
// swaps.
//
// BareMetalDriver is the no-OS path: it programs the decoupler and DFX
// controller directly and busy-polls status registers instead of taking
// interrupts.
#pragma once

#include "runtime/manager.hpp"

namespace presp::runtime {

struct BareMetalStats {
  std::uint64_t polls = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t runs = 0;
};

class BareMetalDriver {
 public:
  BareMetalDriver(soc::Soc& soc, BitstreamStore& store,
                  long long poll_interval_cycles = 256)
      : soc_(soc), store_(store), poll_interval_(poll_interval_cycles) {}

  /// Loads `module` (if needed) and runs the task, polling for
  /// completion. Single-threaded semantics: no locking, one call at a
  /// time. By-value parameters: coroutine.
  sim::Process run(int tile, std::string module, soc::AccelTask task,
                   sim::SimEvent& done);

  const BareMetalStats& stats() const { return stats_; }

 private:
  soc::Soc& soc_;
  BitstreamStore& store_;
  long long poll_interval_;
  BareMetalStats stats_;
};

}  // namespace presp::runtime
