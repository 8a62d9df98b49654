// Cross-node causal tracer: sampled A-broadcasts carry a compact trace
// context on the wire (core/message.hpp: header byte 1 = sampled flag +
// hop count, the detector word = cumulative one-way estimate), and every
// node records fixed-size spans as the broadcast crosses it —
// recv -> process -> enqueue -> send — into its flight recorder
// (obs/recorder.hpp: FlightRecorder::record_span), the same ring and
// sequence as its round-lifecycle events.
//
// Where the events answer "what did THIS node do in round R", the spans
// answer "what path did THIS broadcast take across the overlay": merging
// every node's span dump (admin `/trace`, or SimCluster::merged_trace)
// reconstructs the round's propagation DAG, its empirical
// depth D-hat, the per-hop latency breakdown (queue wait vs serialize vs
// wire vs process), and the critical path — the measured counterpart of
// the paper's analytic 2(L + o_s + o)·D bound (§4.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace allconcur::obs {

/// A node's local one-hop estimate: the running mean of the deployment's
/// per-hop relay latency histogram (the registry metric that stays live
/// even when sampling is off), saturated to 32 bits; 0 without one. Every
/// sampled relay adds it to the frame's cumulative one-way estimate.
std::uint32_t hop_estimate_ns(const Histogram* hop_histogram);

// ---------------------------------------------------------------------------
// Merge + analysis: per-node dumps -> the round's propagation DAG.
// ---------------------------------------------------------------------------

/// One step of a broadcast's critical path: `node` first received the
/// frame from `from` at time `t`, at distance `dist` from the origin.
struct TraceStep {
  NodeId node = kInvalidNode;
  NodeId from = kInvalidNode;
  std::size_t dist = 0;
  TimeNs t = 0;
};

/// Everything the merge learned about one traced broadcast.
struct BroadcastTrace {
  Round round = 0;
  NodeId origin = kInvalidNode;
  std::size_t depth = 0;    ///< D-hat: max distance over first receipts
  std::size_t reached = 0;  ///< nodes that received it (origin excluded)
  TimeNs origin_t = 0;      ///< origin span time (0 if the dump lost it)
  TimeNs completed_t = 0;   ///< latest first-receipt time
  std::uint32_t max_est_ns = 0;  ///< deepest cumulative wire estimate
  std::vector<TraceStep> critical_path;  ///< origin -> deepest node
  bool fell_back = false;  ///< a kFallback span annotated this round
};

/// Per-hop latency attribution summed over every matched phase pair.
struct TraceBreakdown {
  double process_ns = 0;    ///< recv -> relay decision (engine)
  double queue_ns = 0;      ///< relay decision -> enqueue on the conn
  double serialize_ns = 0;  ///< enqueue -> handed to the wire
  double wire_ns = 0;       ///< sender's send -> receiver's recv
  std::uint64_t hops = 0;   ///< matched wire edges
};

/// Merges per-node span streams and reconstructs the propagation DAG.
class TraceMerge {
 public:
  /// Spans from FlightRecorder::spans (node already filled) or a parsed
  /// dump.
  void add_spans(const std::vector<Span>& spans);
  /// Parses a FlightRecorder::dump_spans_json() JSONL blob; returns spans
  /// accepted. Lines that do not parse are skipped (a merge of truncated
  /// dumps still works).
  std::size_t add_dump(std::string_view jsonl);

  const std::vector<Span>& spans() const { return spans_; }

  /// One entry per traced (round, origin), round-major order.
  std::vector<BroadcastTrace> broadcasts() const;
  /// Max depth over every traced broadcast — the measured D-hat that
  /// work_depth_model compares against the analytic diameter.
  std::size_t empirical_depth() const;
  TraceBreakdown breakdown() const;

  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto):
  /// per-node residency slices plus flow arrows for every wire edge.
  /// Timestamps are the deployment clock in microseconds.
  std::string chrome_trace_json() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace allconcur::obs
