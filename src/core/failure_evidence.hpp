// Algorithm 1's failure set F_i, kept once for all open rounds. A ⟨FAIL,
// p_j, p_k⟩ tagged r says "p_k did not receive m_j^(r)": valid for r and
// (suspicion persists) every later round, never an earlier one. So each
// (j,k) pair maps to the first round it applies to, and round r's F_i is
// the pairs whose first round is ≤ r (carried across rounds, line 12).
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/tracking.hpp"
#include "core/view.hpp"

namespace allconcur::core {

class FailureEvidence {
 public:
  static constexpr Round kNever = std::numeric_limits<Round>::max();

  /// Round r's F_i as the tracking digraphs query it, by rank.
  class AtRound final : public FailureKnowledge {
   public:
    AtRound(const FailureEvidence& e, Round r) : e_(e), r_(r) {}
    bool is_failed(NodeId rank) const override {
      return e_.first_failed_[rank] <= r_;
    }
    bool has_pair(NodeId rank_j, NodeId rank_k) const override {
      const auto it = e_.pairs_.find(
          {e_.view_->member(rank_j), e_.view_->member(rank_k)});
      return it != e_.pairs_.end() && it->second <= r_;
    }

   private:
    const FailureEvidence& e_;
    Round r_;
  };

  /// Pairs detected by `self` are this server's own suspicions.
  explicit FailureEvidence(NodeId self) : self_(self) {}

  /// Starts an epoch over `view`: drops the pairs whose p_j left (those
  /// whose detector p_k left stay: "p_j failed" still matters).
  void set_view(std::shared_ptr<const View> view) {
    view_ = std::move(view);
    std::erase_if(pairs_, [this](const auto& e) {
      return !view_->contains(e.first.first);
    });
    first_failed_.assign(view_->size(), kNever);
    suspected_.assign(view_->size(), false);
    for (const auto& [jk, first] : pairs_) index(jk.first, jk.second, first);
  }

  /// Records that ⟨FAIL, j, k⟩ applies from round `r` on (`j` a member).
  /// Returns the first round it applied to before, kNever if new: the
  /// rounds in [r, returned) learn it now.
  Round learn(NodeId j, NodeId k, Round r) {
    index(j, k, r);
    const auto [it, fresh] = pairs_.try_emplace({j, k}, r);
    const Round before = fresh ? kNever : it->second;
    it->second = std::min(before, r);
    return before;
  }

  bool empty() const { return pairs_.empty(); }
  AtRound at(Round r) const { return AtRound(*this, r); }
  /// This server itself reported the member at `rank` (in any round).
  bool suspected(std::size_t rank) const { return suspected_[rank]; }

  /// Calls fn(j, k) for every pair of round r's F_i, in (j,k) order.
  template <typename Fn>
  void for_each(Round r, Fn&& fn) const {
    for (const auto& [jk, first] : pairs_) {
      if (first <= r) fn(jk.first, jk.second);
    }
  }

 private:
  void index(NodeId j, NodeId k, Round r) {
    const auto rank = view_->rank_of(j);
    ALLCONCUR_ASSERT(rank.has_value(), "failure evidence about a non-member");
    first_failed_[*rank] = std::min(first_failed_[*rank], r);
    if (k == self_) suspected_[*rank] = true;
  }

  NodeId self_;
  std::shared_ptr<const View> view_;
  std::map<std::pair<NodeId, NodeId>, Round> pairs_;  // (j,k) -> first round
  std::vector<Round> first_failed_;  // by rank of j: earliest first round
  std::vector<bool> suspected_;      // by rank of j: (j, self) is held
};

}  // namespace allconcur::core
