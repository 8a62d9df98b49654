#include "core/view.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/reliability.hpp"

namespace allconcur::core {

GraphBuilder make_default_graph_builder() {
  return [](std::size_t n) -> graph::Digraph {
    // make_gs_digraph handles every degenerate size itself: n <= 1 yields
    // the edgeless digraph and n < max(6, 2d) the complete digraph.
    return graph::make_gs_digraph(n, graph::paper_gs_degree(n));
  };
}

View::View(std::vector<NodeId> members, const GraphBuilder& builder,
           const GraphBuilder& fast_builder)
    : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
  ALLCONCUR_ASSERT(
      std::adjacent_find(members_.begin(), members_.end()) == members_.end(),
      "duplicate member id");
  overlay_ = builder(members_.size());
  ALLCONCUR_ASSERT(overlay_.order() == members_.size(),
                   "graph builder returned wrong order");
  if (fast_builder) {
    fast_overlay_ = fast_builder(members_.size());
    ALLCONCUR_ASSERT(fast_overlay_.order() == members_.size(),
                     "fast graph builder returned wrong order");
    union_overlay_ = graph::Digraph(members_.size());
    for (NodeId v = 0; v < members_.size(); ++v) {
      for (NodeId s : overlay_.successors(v)) {
        union_overlay_.add_edge_if_absent(v, s);
      }
      for (NodeId s : fast_overlay_.successors(v)) {
        union_overlay_.add_edge_if_absent(v, s);
      }
    }
  }
}

NodeId View::member(std::size_t rank) const {
  ALLCONCUR_ASSERT(rank < members_.size(), "rank out of range");
  return members_[rank];
}

std::optional<std::size_t> View::rank_of(NodeId id) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), id);
  if (it == members_.end() || *it != id) return std::nullopt;
  return static_cast<std::size_t>(it - members_.begin());
}

std::vector<NodeId> View::neighbors(const graph::Digraph& g, NodeId id,
                                    bool successors) const {
  const auto rank = rank_of(id);
  ALLCONCUR_ASSERT(rank.has_value(), "not a member");
  ALLCONCUR_ASSERT(g.order() == members_.size(), "overlay absent");
  std::vector<NodeId> out;
  const auto& adj = successors
                        ? g.successors(static_cast<NodeId>(*rank))
                        : g.predecessors(static_cast<NodeId>(*rank));
  for (NodeId r : adj) out.push_back(members_[r]);
  return out;
}

std::vector<NodeId> View::successors_of(NodeId id) const {
  return neighbors(overlay_, id, true);
}

std::vector<NodeId> View::predecessors_of(NodeId id) const {
  return neighbors(overlay_, id, false);
}

std::vector<NodeId> View::fast_successors_of(NodeId id) const {
  return neighbors(fast_overlay_, id, true);
}

std::vector<NodeId> View::monitor_successors_of(NodeId id) const {
  return neighbors(monitor_overlay(), id, true);
}

std::vector<NodeId> View::monitor_predecessors_of(NodeId id) const {
  return neighbors(monitor_overlay(), id, false);
}

View View::next(const std::vector<NodeId>& removed,
                const std::vector<NodeId>& added, const GraphBuilder& builder,
                const GraphBuilder& fast_builder) const {
  std::vector<NodeId> next_members;
  next_members.reserve(members_.size() + added.size());
  for (NodeId m : members_) {
    if (std::find(removed.begin(), removed.end(), m) == removed.end()) {
      next_members.push_back(m);
    }
  }
  for (NodeId a : added) {
    if (std::find(next_members.begin(), next_members.end(), a) ==
        next_members.end()) {
      next_members.push_back(a);
    }
  }
  return View(std::move(next_members), builder, fast_builder);
}

}  // namespace allconcur::core
