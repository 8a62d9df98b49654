// core::FailureEvidence on its own: one store of ⟨FAIL⟩ pairs, each
// applying from the first round it was learned for, filtered on a view
// switch by whether p_j stays.
#include "core/failure_evidence.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"

namespace allconcur::core {
namespace {

std::shared_ptr<const View> view_of(std::vector<NodeId> members) {
  return std::make_shared<const View>(
      std::move(members), [](std::size_t n) { return graph::make_complete(n); });
}

std::vector<std::pair<NodeId, NodeId>> pairs_at(const FailureEvidence& e,
                                                Round r) {
  std::vector<std::pair<NodeId, NodeId>> out;
  e.for_each(r, [&out](NodeId j, NodeId k) { out.emplace_back(j, k); });
  return out;
}

TEST(FailureEvidence, PairAppliesFromItsRoundOnNeverBefore) {
  FailureEvidence e(/*self=*/0);
  e.set_view(view_of({0, 1, 2, 3}));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.learn(2, 3, 5), FailureEvidence::kNever);
  EXPECT_FALSE(e.empty());
  EXPECT_FALSE(e.at(4).has_pair(2, 3));
  EXPECT_FALSE(e.at(4).is_failed(2));
  EXPECT_TRUE(pairs_at(e, 4).empty());
  for (Round r : {5u, 6u, 100u}) {
    EXPECT_TRUE(e.at(r).has_pair(2, 3)) << r;
    EXPECT_TRUE(e.at(r).is_failed(2)) << r;
    EXPECT_FALSE(e.at(r).is_failed(3)) << r;  // the detector did not fail
    EXPECT_EQ(pairs_at(e, r), (std::vector<std::pair<NodeId, NodeId>>{{2, 3}}));
  }
  // Learning it again at a later round changes nothing.
  EXPECT_EQ(e.learn(2, 3, 8), 5u);
  EXPECT_FALSE(e.at(4).has_pair(2, 3));
}

TEST(FailureEvidence, RelearningEarlierExtendsBackToThatRoundOnly) {
  FailureEvidence e(/*self=*/0);
  e.set_view(view_of({0, 1, 2, 3}));
  e.learn(1, 2, 7);
  EXPECT_EQ(e.learn(1, 2, 4), 7u);  // rounds 4..6 learn it now
  EXPECT_FALSE(e.at(3).has_pair(1, 2));
  EXPECT_FALSE(e.at(3).is_failed(1));
  EXPECT_TRUE(e.at(4).has_pair(1, 2));
  EXPECT_TRUE(e.at(4).is_failed(1));
  EXPECT_EQ(e.learn(1, 2, 6), 4u);
  EXPECT_FALSE(e.at(3).has_pair(1, 2));
  // is_failed follows the earliest pair about p_j.
  e.learn(1, 3, 2);
  EXPECT_TRUE(e.at(2).is_failed(1));
  EXPECT_FALSE(e.at(2).has_pair(1, 2));
}

TEST(FailureEvidence, OwnPairsAreSuspicionsInAnyRound) {
  FailureEvidence e(/*self=*/1);
  e.set_view(view_of({0, 1, 2, 3}));
  e.learn(2, 3, 1);
  EXPECT_FALSE(e.suspected(2));
  e.learn(3, 1, 9);
  EXPECT_TRUE(e.suspected(3));
  EXPECT_FALSE(e.at(8).is_failed(3));
}

TEST(FailureEvidence, ViewSwitchDropsLeftFailedAndKeepsLeftDetectors) {
  FailureEvidence e(/*self=*/1);
  e.set_view(view_of({0, 1, 2, 3, 4}));
  e.learn(3, 0, 2);  // p_j = 3 leaves: dropped
  e.learn(2, 3, 2);  // detector 3 leaves: kept
  e.learn(4, 1, 3);  // kept; 4's rank shifts from 4 to 3
  e.set_view(view_of({0, 1, 2, 4}));
  EXPECT_EQ(pairs_at(e, 10),
            (std::vector<std::pair<NodeId, NodeId>>{{2, 3}, {4, 1}}));
  EXPECT_EQ(pairs_at(e, 2),
            (std::vector<std::pair<NodeId, NodeId>>{{2, 3}}));
  // Rank lookups follow the new view.
  EXPECT_TRUE(e.at(3).is_failed(3));  // rank 3 is now node 4
  EXPECT_FALSE(e.at(2).is_failed(3));
  EXPECT_TRUE(e.suspected(3));
  EXPECT_FALSE(e.suspected(2));
  EXPECT_TRUE(e.at(2).is_failed(2));
  EXPECT_FALSE(e.at(10).is_failed(0));
  EXPECT_TRUE(e.at(3).has_pair(3, 1));  // (4, 1) by rank
}

TEST(FailureEvidence, IterationFollowsPairOrder) {
  FailureEvidence e(/*self=*/0);
  e.set_view(view_of({0, 1, 2, 3, 4, 5}));
  e.learn(4, 2, 3);
  e.learn(1, 5, 6);
  e.learn(4, 0, 1);
  e.learn(1, 2, 2);
  e.learn(3, 4, 4);
  EXPECT_EQ(pairs_at(e, 9), (std::vector<std::pair<NodeId, NodeId>>{
                                {1, 2}, {1, 5}, {3, 4}, {4, 0}, {4, 2}}));
  EXPECT_EQ(pairs_at(e, 3), (std::vector<std::pair<NodeId, NodeId>>{
                                {1, 2}, {4, 0}, {4, 2}}));
}

}  // namespace
}  // namespace allconcur::core
