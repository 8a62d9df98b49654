// Membership view: the set of servers participating in a round and the
// overlay digraph G connecting them.
//
// Wire messages carry stable global NodeIds; the overlay digraph is built
// over dense ranks [0, n). A View owns the (sorted) member list, the
// rank <-> id mapping and the digraph, and is immutable — membership
// changes build a new View at a round boundary (§3, iterating AllConcur).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace allconcur::core {

/// Builds the overlay for a given membership size. The default builder
/// (see make_default_graph_builder) uses GS(n, d) with the paper's Table 3
/// degrees; degenerate sizes take make_gs_digraph's documented
/// complete-graph fallback (n < max(6, 2d)).
using GraphBuilder = std::function<graph::Digraph(std::size_t n)>;

GraphBuilder make_default_graph_builder();

class View {
 public:
  /// `members` need not be sorted; duplicates are asserted away.
  /// `fast_builder` (dual-digraph mode, AllConcur+) additionally builds
  /// the unreliable overlay G_U over the same membership; pass an empty
  /// function for the classic single-overlay view.
  View(std::vector<NodeId> members, const GraphBuilder& builder,
       const GraphBuilder& fast_builder = GraphBuilder());

  std::size_t size() const { return members_.size(); }
  const std::vector<NodeId>& members() const { return members_; }
  bool contains(NodeId id) const { return rank_of(id).has_value(); }

  NodeId member(std::size_t rank) const;
  std::optional<std::size_t> rank_of(NodeId id) const;

  /// Reliable overlay digraph G_R; vertex v of the digraph is rank v.
  const graph::Digraph& overlay() const { return overlay_; }

  /// True iff this view carries a paired unreliable overlay G_U.
  bool has_fast_overlay() const { return fast_overlay_.order() > 0; }
  /// Union overlay G_U ∪ G_R over ranks — the digraph message tracking
  /// and failure monitoring must assume in dual mode (a message may have
  /// travelled either graph). Equals overlay() without a fast overlay.
  const graph::Digraph& monitor_overlay() const {
    return has_fast_overlay() ? union_overlay_ : overlay_;
  }

  /// Successors / predecessors of a member in G_R, as global ids.
  std::vector<NodeId> successors_of(NodeId id) const;
  std::vector<NodeId> predecessors_of(NodeId id) const;
  /// Same along G_U (dual-digraph mode only).
  std::vector<NodeId> fast_successors_of(NodeId id) const;
  /// Neighbors along the monitor overlay: the links a failure detector
  /// must watch and a dual-mode transport must maintain. Without a fast
  /// overlay these are exactly successors_of / predecessors_of.
  std::vector<NodeId> monitor_successors_of(NodeId id) const;
  std::vector<NodeId> monitor_predecessors_of(NodeId id) const;

  /// Derives the next-round view: current minus `removed` plus `added`.
  View next(const std::vector<NodeId>& removed,
            const std::vector<NodeId>& added, const GraphBuilder& builder,
            const GraphBuilder& fast_builder = GraphBuilder()) const;

 private:
  std::vector<NodeId> neighbors(const graph::Digraph& g, NodeId id,
                                bool successors) const;

  std::vector<NodeId> members_;  // sorted
  graph::Digraph overlay_;       // G_R
  graph::Digraph fast_overlay_;  // G_U (order 0 when absent)
  graph::Digraph union_overlay_; // G_U ∪ G_R (order 0 when G_U absent)
};

}  // namespace allconcur::core
