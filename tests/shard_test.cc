// Tests for the shard planner (dist/shard.h): bucket homogeneity, size
// bounds, exact cross-product coverage, determinism, and index-skip
// accounting that mirrors IndexedSimJoin.

#include "dist/shard.h"

#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/join.h"
#include "test_util.h"

namespace simj::dist {
namespace {

using simj::testing::MakeRandomJoinWorkload;
using simj::testing::MakeSkewedBucketWorkload;
using simj::testing::RandomJoinWorkload;

core::SimJParams BaseParams() {
  core::SimJParams params;
  params.tau = 2;
  params.alpha = 0.3;
  params.slow_pair_log_ms = 0.0;
  return params;
}

TEST(ShardPlanTest, NoIndexPlanCoversCrossProductExactlyOnce) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(21, {.num_certain = 6, .num_uncertain = 5});
  ShardPlanOptions options;
  options.use_index = false;
  options.max_pairs_per_shard = 4;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  EXPECT_EQ(plan.pre_stats.total_pairs, 0);
  EXPECT_TRUE(plan.pre_explains.empty());
  std::set<std::pair<int, int>> seen;
  for (const Shard& shard : plan.shards) {
    for (const auto& pair : shard.pairs) {
      EXPECT_TRUE(seen.insert(pair).second)
          << "pair <" << pair.first << "," << pair.second
          << "> planned twice";
    }
  }
  EXPECT_EQ(plan.planned_pairs, static_cast<int64_t>(seen.size()));
  EXPECT_EQ(seen.size(), w.d.size() * w.u.size());
}

TEST(ShardPlanTest, ShardsAreSignatureHomogeneousAndSizeBounded) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(22, {.num_certain = 8, .num_uncertain = 6});
  ShardPlanOptions options;
  options.max_pairs_per_shard = 3;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  for (const Shard& shard : plan.shards) {
    EXPECT_LE(shard.pairs.size(), 3u);
    EXPECT_FALSE(shard.pairs.empty());
    for (const auto& [qi, gi] : shard.pairs) {
      EXPECT_EQ(w.d[static_cast<size_t>(qi)].num_vertices(), shard.vertices);
      EXPECT_EQ(w.d[static_cast<size_t>(qi)].num_edges(), shard.edges);
    }
  }
  // Shard ids are dense and ascending.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    EXPECT_EQ(plan.shards[s].shard_id, static_cast<int>(s));
  }
}

TEST(ShardPlanTest, IndexPlanAccountsSkipsLikeIndexedSimJoin) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(23, {.num_certain = 8, .num_uncertain = 6});
  core::SimJParams params = BaseParams();
  ShardPlanOptions options;
  options.use_index = true;
  options.max_pairs_per_shard = 5;
  ShardPlan plan = PlanShards(w.d, w.u, params, options);

  // Planned + skipped partitions the cross product, and skips are counted
  // as structurally pruned.
  const int64_t cross =
      static_cast<int64_t>(w.d.size()) * static_cast<int64_t>(w.u.size());
  EXPECT_EQ(plan.planned_pairs + plan.pre_stats.total_pairs, cross);
  EXPECT_EQ(plan.pre_stats.pruned_structural, plan.pre_stats.total_pairs);
  EXPECT_EQ(plan.pre_stats.candidates, 0);

  // The planned pair set is exactly the index's candidate set.
  core::CertainGraphIndex index(&w.d);
  std::set<std::pair<int, int>> expected;
  for (int gi = 0; gi < static_cast<int>(w.u.size()); ++gi) {
    for (int qi : index.Candidates(w.u[static_cast<size_t>(gi)], params.tau)) {
      expected.emplace(qi, gi);
    }
  }
  std::set<std::pair<int, int>> planned;
  for (const Shard& shard : plan.shards) {
    planned.insert(shard.pairs.begin(), shard.pairs.end());
  }
  EXPECT_EQ(planned, expected);
}

TEST(ShardPlanTest, ExplainModeRecordsEverySkippedPairWhenUnsampled) {
  RandomJoinWorkload w =
      MakeRandomJoinWorkload(24, {.num_certain = 6, .num_uncertain = 6});
  core::SimJParams params = BaseParams();
  params.explain.enabled = true;
  params.explain.sample_every = 1;
  ShardPlanOptions options;
  ShardPlan plan = PlanShards(w.d, w.u, params, options);
  EXPECT_EQ(static_cast<int64_t>(plan.pre_explains.size()),
            plan.pre_stats.total_pairs);
  for (const core::PairExplain& explain : plan.pre_explains) {
    EXPECT_EQ(explain.pruned_by, core::PruneStage::kIndexCount);
  }
}

TEST(ShardPlanTest, PlanIsDeterministic) {
  RandomJoinWorkload w = MakeRandomJoinWorkload(25);
  ShardPlanOptions options;
  options.max_pairs_per_shard = 2;
  ShardPlan a = PlanShards(w.d, w.u, BaseParams(), options);
  ShardPlan b = PlanShards(w.d, w.u, BaseParams(), options);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  EXPECT_EQ(a.planned_pairs, b.planned_pairs);
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].shard_id, b.shards[s].shard_id);
    EXPECT_EQ(a.shards[s].vertices, b.shards[s].vertices);
    EXPECT_EQ(a.shards[s].edges, b.shards[s].edges);
    EXPECT_EQ(a.shards[s].pairs, b.shards[s].pairs);
  }
}

TEST(ShardPlanTest, SkewedWorkloadYieldsOneHotBucket) {
  RandomJoinWorkload w = MakeSkewedBucketWorkload(26);
  ShardPlanOptions options;
  options.max_pairs_per_shard = 8;
  ShardPlan plan = PlanShards(w.d, w.u, BaseParams(), options);

  // Count shards per signature: the (4,3) hot bucket must dominate.
  std::map<std::pair<int, int>, int> shards_per_signature;
  for (const Shard& shard : plan.shards) {
    ++shards_per_signature[{shard.vertices, shard.edges}];
  }
  ASSERT_TRUE(shards_per_signature.count({4, 3}) > 0);
  const int hot = shards_per_signature[{4, 3}];
  EXPECT_GE(hot, 8);  // 24 hot graphs x 6 uncertain / 8 per shard
  for (const auto& [signature, count] : shards_per_signature) {
    if (signature != std::make_pair(4, 3)) {
      EXPECT_LT(count, hot);
    }
  }
}

}  // namespace
}  // namespace simj::dist
