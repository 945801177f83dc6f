#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace presp::floorplan {

namespace {

fabric::ResourceVec inflate(const fabric::ResourceVec& demand,
                            double margin) {
  auto scale = [margin](std::int64_t v) {
    return static_cast<std::int64_t>(std::ceil(static_cast<double>(v) *
                                               margin));
  };
  return {scale(demand.luts), scale(demand.ffs), scale(demand.bram36),
          scale(demand.dsp)};
}

/// A legal candidate pblock and its waste, computed once on enumeration.
struct Candidate {
  double waste;
  fabric::Pblock pblock;
};

/// Every legal candidate pblock for `demand`, ignoring other partitions,
/// sorted by (waste, row_lo, col_lo).
std::vector<Candidate> ranked_candidates(const fabric::Device& device,
                                         const fabric::ResourceVec& demand) {
  std::vector<Candidate> result;
  const int rows = device.region_rows();
  const int cols = device.num_columns();

  for (int height = 1; height <= rows; ++height) {
    for (int row_lo = 0; row_lo + height - 1 < rows; ++row_lo) {
      const int row_hi = row_lo + height - 1;
      for (int col_lo = 0; col_lo < cols; ++col_lo) {
        if (!fabric::Device::reconfigurable_column(
                device.column_type(col_lo)))
          continue;
        // Extend right to the minimal covering width (first fit). Every
        // column crossed is reconfigurable, so `acc` equals
        // pblock_resources of the candidate.
        fabric::ResourceVec acc;
        for (int col_hi = col_lo; col_hi < cols; ++col_hi) {
          if (!fabric::Device::reconfigurable_column(
                  device.column_type(col_hi)))
            break;  // cannot cross IO / clocking columns
          acc += device.cell_resources(col_hi) * height;
          if (acc.covers(demand)) {
            result.push_back({lut_equivalent(acc - demand),
                              fabric::Pblock{col_lo, col_hi, row_lo, row_hi}});
            break;
          }
        }
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.waste != b.waste) return a.waste < b.waste;
              if (a.pblock.row_lo != b.pblock.row_lo)
                return a.pblock.row_lo < b.pblock.row_lo;
              return a.pblock.col_lo < b.pblock.col_lo;
            });
  return result;
}

}  // namespace

double lut_equivalent(const fabric::ResourceVec& r) {
  // FF capacity tracks LUT capacity 2:1 on the modeled fabrics, so FFs are
  // not counted separately; BRAM/DSP weights approximate their die area
  // relative to a LUT.
  return static_cast<double>(r.luts) + 150.0 * static_cast<double>(r.bram36) +
         50.0 * static_cast<double>(r.dsp);
}

bool Floorplanner::legal(const fabric::Pblock& pblock,
                         const fabric::ResourceVec& demand) const {
  if (!pblock.valid() || pblock.col_lo < 0 ||
      pblock.col_hi >= device_.num_columns() || pblock.row_lo < 0 ||
      pblock.row_hi >= device_.region_rows())
    return false;
  for (int col = pblock.col_lo; col <= pblock.col_hi; ++col)
    if (!fabric::Device::reconfigurable_column(device_.column_type(col)))
      return false;
  return fabric::pblock_resources(device_, pblock).covers(demand);
}

std::vector<fabric::Pblock> Floorplanner::candidates(
    const fabric::ResourceVec& demand) const {
  std::vector<fabric::Pblock> result;
  for (const Candidate& c : ranked_candidates(device_, demand))
    result.push_back(c.pblock);
  return result;
}

Floorplan Floorplanner::plan(const std::vector<PartitionRequest>& requests,
                             const fabric::ResourceVec& static_demand,
                             const FloorplanOptions& options) const {
  PRESP_REQUIRE(options.utilization_margin >= 1.0,
                "utilization margin must be >= 1");

  // Inflated demands, processed largest-first (classic floorplanning
  // order), but results reported in request order.
  std::vector<fabric::ResourceVec> demands;
  demands.reserve(requests.size());
  for (const PartitionRequest& req : requests) {
    PRESP_REQUIRE(req.demand.non_negative(), "negative partition demand");
    demands.push_back(inflate(req.demand, options.utilization_margin));
  }
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lut_equivalent(demands[a]) > lut_equivalent(demands[b]);
  });

  // Each partition's ranked candidates are demand-dependent only: the
  // greedy pass enumerates them once and refinement reuses them.
  std::vector<std::vector<Candidate>> ranked(requests.size());
  std::vector<fabric::Pblock> placed(requests.size());
  std::vector<double> waste(requests.size(), 0.0);
  std::vector<bool> done(requests.size(), false);

  auto overlaps_any = [&](const fabric::Pblock& pb, std::size_t self) {
    for (std::size_t j = 0; j < placed.size(); ++j)
      if (j != self && done[j] && pb.overlaps(placed[j])) return true;
    return false;
  };

  for (const std::size_t i : order) {
    ranked[i] = ranked_candidates(device_, demands[i]);
    for (const Candidate& cand : ranked[i]) {
      if (overlaps_any(cand.pblock, i)) continue;
      placed[i] = cand.pblock;
      waste[i] = cand.waste;
      done[i] = true;
      break;
    }
    if (!done[i])
      throw InfeasibleDesign("no legal pblock for partition '" +
                             requests[i].name + "' (demand " +
                             demands[i].to_string() + ")");
  }

  auto total_waste = [&] {
    double w = 0.0;
    for (const double wi : waste) w += wi;
    return w;
  };

  // Stochastic refinement: try relocating one pblock at a time to a less
  // wasteful legal rectangle, accepting strict improvements (the greedy
  // order can strand early pblocks in oversized rectangles).
  if (options.refine && !requests.empty()) {
    presp::Rng rng(options.seed);
    double best = total_waste();
    for (int iter = 0; iter < options.refine_iterations; ++iter) {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(placed.size()));
      const auto& cands = ranked[i];
      // Probe a random prefix position: earlier candidates waste less.
      const Candidate& cand = cands[static_cast<std::size_t>(
          rng.next_below(std::min<std::size_t>(cands.size(), 16)))];
      if (overlaps_any(cand.pblock, i)) continue;
      const fabric::Pblock old = placed[i];
      const double old_waste = waste[i];
      placed[i] = cand.pblock;
      waste[i] = cand.waste;
      const double now = total_waste();
      if (now < best) {
        best = now;
      } else {
        placed[i] = old;
        waste[i] = old_waste;
      }
    }
  }

  Floorplan plan;
  plan.pblocks = placed;
  plan.static_capacity = device_.total();
  for (std::size_t i = 0; i < placed.size(); ++i)
    plan.static_capacity -= fabric::pblock_resources(device_, placed[i]);
  plan.waste = total_waste();

  if (!plan.static_capacity.covers(static_demand))
    throw InfeasibleDesign(
        "static part no longer fits after floorplanning: need " +
        static_demand.to_string() + ", have " +
        plan.static_capacity.to_string());
  return plan;
}

}  // namespace presp::floorplan
