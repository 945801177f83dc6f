// Automated DPR floorplanning, adapted from FLORA (Seyoum et al., ACM
// TECS 2019), the tool the paper integrates for its evaluation boards.
//
// Given the post-synthesis resource demand of each reconfigurable
// partition, produces one pblock (rectangle of column x clock-region
// cells) per partition such that:
//   1. the pblock's enclosed resources cover the partition's demand
//      component-wise (LUT/FF/BRAM/DSP);
//   2. pblocks do not overlap;
//   3. a pblock never contains a clocking-spine or I/O column (Xilinx
//      prohibits clock-modifying logic and route-throughs inside
//      reconfigurable partitions — the architectural restriction that
//      motivated the paper's reconfigurable-tile redesign);
//   4. pblock edges snap to clock-region rows (reconfiguration is
//      frame-atomic per region row).
//
// The objective is minimal wasted fabric: the LUT-equivalent of resources
// enclosed beyond the demand, since everything inside a pblock is lost to
// the static part. A greedy best-fit over all legal rectangles is followed
// by an optional local-refinement pass that reshapes pblocks to shrink
// total waste.
#pragma once

#include <string>
#include <vector>

#include "fabric/device.hpp"
#include "util/rng.hpp"

namespace presp::floorplan {

struct PartitionRequest {
  std::string name;
  fabric::ResourceVec demand;
};

struct FloorplanOptions {
  /// Enable the stochastic refinement pass after greedy placement.
  bool refine = true;
  int refine_iterations = 400;
  std::uint64_t seed = 1;
  /// Demand inflation applied before sizing (Vivado requires slack inside
  /// partitions for routability; 1.0 = exact fit).
  double utilization_margin = 1.15;
};

struct Floorplan {
  /// One pblock per request, same order.
  std::vector<fabric::Pblock> pblocks;
  /// Device capacity left to the static part (total minus all pblocks).
  fabric::ResourceVec static_capacity;
  /// Total LUT-equivalent waste across pblocks.
  double waste = 0.0;
};

/// LUT-equivalent scalarization used for the waste objective.
double lut_equivalent(const fabric::ResourceVec& r);

class Floorplanner {
 public:
  explicit Floorplanner(const fabric::Device& device) : device_(device) {}

  /// Plans all partitions. `static_demand` is checked against the
  /// remaining capacity. Throws InfeasibleDesign when any partition has no
  /// legal pblock or the static part no longer fits.
  Floorplan plan(const std::vector<PartitionRequest>& requests,
                 const fabric::ResourceVec& static_demand,
                 const FloorplanOptions& options = {}) const;

  /// All legal candidate pblocks for one demand, ignoring other
  /// partitions, in the order plan() tries them: increasing waste, ties
  /// broken by row_lo, then col_lo.
  std::vector<fabric::Pblock> candidates(
      const fabric::ResourceVec& demand) const;

  /// Legality of a single pblock for a demand (constraints 1, 3, 4).
  bool legal(const fabric::Pblock& pblock,
             const fabric::ResourceVec& demand) const;

 private:
  const fabric::Device& device_;
};

}  // namespace presp::floorplan
