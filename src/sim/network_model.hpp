// Network cost model for the simulated fabric.
//
// The paper analyses AllConcur with LogP (§4: latency L, overhead o, and
// per-byte costs for the throughput regime); this model implements exactly
// that, extended with the two bandwidth levels that make the Fig. 10
// comparisons meaningful on real NICs:
//   * per-connection stream rate (a single TCP stream does not saturate
//     the NIC), and
//   * per-node aggregate NIC rate shared by all connections.
// Every node has one egress and one ingress serialization resource
// (the "o" CPU cost of LogP applies on both sides).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace allconcur::sim {

struct FabricParams {
  DurationNs latency = us(12);   ///< L: wire latency
  DurationNs overhead = us(1.8);  ///< o: per-message CPU cost (each side)
  double stream_ns_per_byte = 0.8;  ///< 1 / per-connection bandwidth
  double nic_ns_per_byte = 0.125;   ///< 1 / per-node aggregate bandwidth
  /// TCP congestion emulation: messages larger than this pay the penalty
  /// factor on their stream time (reproduces the post-peak throughput drop
  /// in Fig. 10); 0 disables.
  std::size_t congestion_threshold_bytes = 0;
  double congestion_penalty = 1.0;
  /// Single-threaded transports (the paper's libev implementation, kernel
  /// TCP): send- and receive-side per-message/per-byte costs share one CPU
  /// per node. Offloaded fabrics (Verbs) keep rx/tx independent.
  bool shared_cpu = false;

  /// InfiniBand Verbs on the IB-hsw cluster (paper's Fig. 6a model
  /// parameters: L = 1.25us, o = 0.38us; 40 Gbps QDR).
  static FabricParams infiniband();
  /// TCP (IPoIB) on the IB-hsw cluster (L = 12us, o = 1.8us).
  static FabricParams tcp_ib();
  /// TCP on the Cray XC40 (Aries): same LogP overheads as TCP, much higher
  /// node injection bandwidth, single-stream TCP cap.
  static FabricParams tcp_xc40();
};

/// Tracks per-node and per-connection resource availability and computes
/// message timing. Connection state is created lazily, keyed on
/// (src, dst) — a deployment of n nodes with degree d touches O(n*d) keys.
class NetworkModel {
 public:
  NetworkModel(FabricParams params, std::size_t nodes);

  const FabricParams& params() const { return params_; }

  /// Sender-side cost: returns the time at which the message has fully
  /// left src toward dst (wire propagation not yet included) and charges
  /// the egress/stream resources.
  TimeNs sender_done(NodeId src, NodeId dst, std::size_t bytes, TimeNs now);

  /// Arrival at dst's NIC: sender_done + L.
  TimeNs arrival(TimeNs sender_done_at) const {
    return sender_done_at + params_.latency;
  }

  /// Receiver-side cost, called at arrival time (events must be processed
  /// in time order): returns when the message is handed to the engine and
  /// charges the ingress resource.
  TimeNs receiver_done(NodeId dst, std::size_t bytes, TimeNs arrival_at);

  /// Sum of LogP model costs for one message ignoring contention — used by
  /// the Fig. 6 model curves.
  DurationNs uncontended_transit(std::size_t bytes) const;

 private:
  double stream_time(std::size_t bytes) const;

  FabricParams params_;
  std::vector<TimeNs> egress_free_;
  std::vector<TimeNs> ingress_free_;
  // conn_free_ keyed by src * nodes + dst.
  std::vector<TimeNs> conn_free_;
  std::size_t nodes_;
};

}  // namespace allconcur::sim
