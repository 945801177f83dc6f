#include <gtest/gtest.h>

#include <tuple>

#include "floorplan/floorplanner.hpp"
#include "util/error.hpp"

namespace presp::floorplan {
namespace {

class FloorplanFixture : public ::testing::Test {
 protected:
  FloorplanFixture() : device_(fabric::Device::vc707()), planner_(device_) {}

  fabric::Device device_;
  Floorplanner planner_;
};

TEST_F(FloorplanFixture, SinglePartitionFitsAndCovers) {
  const PartitionRequest req{"RT_1", {27'000, 30'000, 16, 64}};
  const Floorplan plan = planner_.plan({req}, {80'000, 100'000, 200, 100});
  ASSERT_EQ(plan.pblocks.size(), 1u);
  const auto enclosed = fabric::pblock_resources(device_, plan.pblocks[0]);
  EXPECT_TRUE(enclosed.covers(req.demand));
}

TEST_F(FloorplanFixture, PblocksNeverOverlap) {
  std::vector<PartitionRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back({"RT_" + std::to_string(i + 1), {27'000, 30'000, 16, 64}});
  const Floorplan plan = planner_.plan(reqs, {83'000, 100'000, 200, 100});
  for (std::size_t a = 0; a < plan.pblocks.size(); ++a)
    for (std::size_t b = a + 1; b < plan.pblocks.size(); ++b)
      EXPECT_FALSE(plan.pblocks[a].overlaps(plan.pblocks[b])) << a << "," << b;
}

TEST_F(FloorplanFixture, PblocksAvoidForbiddenColumns) {
  std::vector<PartitionRequest> reqs;
  for (int i = 0; i < 3; ++i)
    reqs.push_back({"RT_" + std::to_string(i + 1), {30'000, 30'000, 32, 128}});
  const Floorplan plan = planner_.plan(reqs, {60'000, 60'000, 100, 50});
  for (const auto& pb : plan.pblocks)
    for (int col = pb.col_lo; col <= pb.col_hi; ++col)
      EXPECT_TRUE(
          fabric::Device::reconfigurable_column(device_.column_type(col)))
          << "forbidden column " << col << " inside pblock";
}

TEST_F(FloorplanFixture, UtilizationMarginInflatesDemand) {
  const fabric::ResourceVec demand{10'000, 10'000, 0, 0};
  FloorplanOptions tight;
  tight.utilization_margin = 1.0;
  tight.refine = false;
  FloorplanOptions loose;
  loose.utilization_margin = 1.5;
  loose.refine = false;
  const auto plan_tight = planner_.plan({{"RT_1", demand}}, {}, tight);
  const auto plan_loose = planner_.plan({{"RT_1", demand}}, {}, loose);
  EXPECT_GE(
      fabric::pblock_resources(device_, plan_loose.pblocks[0]).luts,
      fabric::pblock_resources(device_, plan_tight.pblocks[0]).luts);
  EXPECT_GE(
      fabric::pblock_resources(device_, plan_loose.pblocks[0]).luts,
      15'000);
}

TEST_F(FloorplanFixture, InfeasiblePartitionThrows) {
  // More LUTs than the device holds.
  EXPECT_THROW(planner_.plan({{"RT_1", {400'000, 0, 0, 0}}}, {}),
               InfeasibleDesign);
}

TEST_F(FloorplanFixture, InfeasibleStaticThrows) {
  // Partition fits but crowds out the static part.
  std::vector<PartitionRequest> reqs;
  for (int i = 0; i < 7; ++i)
    reqs.push_back({"RT_" + std::to_string(i + 1), {35'000, 0, 0, 0}});
  EXPECT_THROW(planner_.plan(reqs, {90'000, 0, 0, 0}), InfeasibleDesign);
}

TEST_F(FloorplanFixture, StaticCapacityAccountsForPblocks) {
  const Floorplan plan =
      planner_.plan({{"RT_1", {27'000, 30'000, 16, 64}}}, {});
  const auto enclosed = fabric::pblock_resources(device_, plan.pblocks[0]);
  EXPECT_EQ(plan.static_capacity.luts,
            device_.total().luts - enclosed.luts);
}

TEST_F(FloorplanFixture, RefinementDoesNotIncreaseWaste) {
  std::vector<PartitionRequest> reqs;
  for (int i = 0; i < 4; ++i)
    reqs.push_back(
        {"RT_" + std::to_string(i + 1),
         {15'000 + 4'000 * i, 15'000, 8 + 4 * i, 16 * (i + 1)}});
  FloorplanOptions no_refine;
  no_refine.refine = false;
  FloorplanOptions refine;
  refine.refine = true;
  refine.refine_iterations = 300;
  const auto base = planner_.plan(reqs, {}, no_refine);
  const auto refined = planner_.plan(reqs, {}, refine);
  EXPECT_LE(refined.waste, base.waste + 1e-9);
}

TEST_F(FloorplanFixture, CandidatesSortedByWaste) {
  const fabric::ResourceVec demand{5'000, 5'000, 4, 8};
  const auto cands = planner_.candidates(demand);
  ASSERT_GT(cands.size(), 1u);
  auto waste = [&](const fabric::Pblock& pb) {
    return lut_equivalent(fabric::pblock_resources(device_, pb) - demand);
  };
  // Neighbours are ordered by (waste, row_lo, col_lo), not waste alone.
  for (std::size_t k = 1; k < cands.size(); ++k) {
    const fabric::Pblock& a = cands[k - 1];
    const fabric::Pblock& b = cands[k];
    const auto key_a = std::make_tuple(waste(a), a.row_lo, a.col_lo);
    const auto key_b = std::make_tuple(waste(b), b.row_lo, b.col_lo);
    EXPECT_LE(key_a, key_b) << a.to_string() << " before " << b.to_string();
  }
}

TEST_F(FloorplanFixture, EqualWasteCandidatesBreakTiesByRowThenColumn) {
  // One CLB cell's LUTs exactly: every single-cell CLB pblock wastes
  // nothing, so the zero-waste prefix is all ties on waste and must come
  // out in (row_lo, col_lo) order.
  std::vector<int> clb_cols;
  for (int col = 0; col < device_.num_columns(); ++col)
    if (device_.column_type(col) == fabric::ColumnType::kClb)
      clb_cols.push_back(col);
  ASSERT_FALSE(clb_cols.empty());
  const fabric::ResourceVec demand{
      device_.cell_resources(fabric::ColumnType::kClb).luts, 0, 0, 0};
  std::vector<fabric::Pblock> expected;
  for (int row = 0; row < device_.region_rows(); ++row)
    for (const int col : clb_cols)
      expected.push_back({col, col, row, row});

  const auto cands = planner_.candidates(demand);
  ASSERT_GT(cands.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const fabric::Pblock& got = cands[k];
    EXPECT_EQ(lut_equivalent(fabric::pblock_resources(device_, got) - demand),
              0.0);
    EXPECT_EQ(std::make_tuple(got.col_lo, got.col_hi, got.row_lo, got.row_hi),
              std::make_tuple(expected[k].col_lo, expected[k].col_hi,
                              expected[k].row_lo, expected[k].row_hi))
        << "candidate " << k << " is " << got.to_string();
  }
  EXPECT_GT(lut_equivalent(
                fabric::pblock_resources(device_, cands[expected.size()]) -
                demand),
            0.0);
}

TEST_F(FloorplanFixture, LegalChecksCoverAndColumns) {
  const fabric::ResourceVec demand{400, 0, 0, 0};
  // Find a single CLB column cell: legal.
  for (int col = 0; col < device_.num_columns(); ++col) {
    if (device_.column_type(col) == fabric::ColumnType::kClb) {
      EXPECT_TRUE(planner_.legal({col, col, 0, 0}, demand));
      EXPECT_FALSE(planner_.legal({col, col, 0, 0}, {401, 0, 0, 0}));
      break;
    }
  }
  // A pblock containing the clocking spine is illegal.
  for (int col = 0; col < device_.num_columns(); ++col) {
    if (device_.column_type(col) == fabric::ColumnType::kClock) {
      EXPECT_FALSE(planner_.legal({col - 1, col + 1, 0, 0}, demand));
      break;
    }
  }
  EXPECT_FALSE(planner_.legal({5, 2, 0, 0}, demand));  // invalid rectangle
}

// Property sweep: across many demand profiles the planner must always
// produce covering, non-overlapping, legal pblocks.
class FloorplanPropertyFixture
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FloorplanPropertyFixture, AlwaysLegalAndCovering) {
  const auto [n_parts, size_step] = GetParam();
  const fabric::Device device = fabric::Device::vc707();
  const Floorplanner planner(device);
  std::vector<PartitionRequest> reqs;
  for (int i = 0; i < n_parts; ++i) {
    reqs.push_back({"RT_" + std::to_string(i + 1),
                    {8'000 + size_step * i,
                     8'000 + size_step * i,
                     static_cast<std::int64_t>(2 * i),
                     static_cast<std::int64_t>(8 * i)}});
  }
  FloorplanOptions options;
  options.refine_iterations = 60;
  const Floorplan plan = planner.plan(reqs, {}, options);
  ASSERT_EQ(plan.pblocks.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(planner.legal(plan.pblocks[i], reqs[i].demand));
    for (std::size_t j = i + 1; j < reqs.size(); ++j)
      EXPECT_FALSE(plan.pblocks[i].overlaps(plan.pblocks[j]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DemandSweep, FloorplanPropertyFixture,
    ::testing::Combine(::testing::Values(1, 2, 4, 6),
                       ::testing::Values(0, 1'500, 4'000)));

}  // namespace
}  // namespace presp::floorplan
