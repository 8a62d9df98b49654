#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace allconcur::obs {

std::uint32_t hop_estimate_ns(const Histogram* hop_histogram) {
  if (hop_histogram == nullptr) return 0;
  const double m = hop_histogram->mean();
  constexpr double kMax = 4294967295.0;
  return m >= kMax ? 0xffffffffu : static_cast<std::uint32_t>(m);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

namespace {

/// Extracts the number following `"key": ` in one JSONL line; false when
/// the key is absent or not followed by digits.
bool json_u64(std::string_view line, std::string_view key,
              std::uint64_t& out) {
  std::string needle = "\"";
  needle.append(key);
  needle += "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  std::size_t i = pos + needle.size();
  bool neg = false;
  if (i < line.size() && line[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  std::uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  out = neg ? static_cast<std::uint64_t>(-static_cast<std::int64_t>(v)) : v;
  return true;
}

bool span_kind_from(std::string_view line, SpanKind& out) {
  const std::size_t pos = line.find("\"span\": \"");
  if (pos == std::string_view::npos) return false;
  const std::string_view rest = line.substr(pos + 9);
  for (SpanKind k :
       {SpanKind::kOrigin, SpanKind::kRecv, SpanKind::kProcess,
        SpanKind::kEnqueue, SpanKind::kSend, SpanKind::kFallback}) {
    const std::string_view name = span_name(k);
    if (rest.size() > name.size() && rest.substr(0, name.size()) == name &&
        rest[name.size()] == '"') {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_span_line(std::string_view line, Span& out) {
  std::uint64_t id = 0, seq = 0, t = 0, round = 0, origin = 0, peer = 0,
                hop = 0, est = 0;
  if (!json_u64(line, "id", id) || !json_u64(line, "t", t) ||
      !json_u64(line, "round", round) || !json_u64(line, "origin", origin) ||
      !json_u64(line, "peer", peer) || !json_u64(line, "hop", hop) ||
      !json_u64(line, "est", est) || !span_kind_from(line, out.kind)) {
    return false;
  }
  json_u64(line, "seq", seq);  // optional: ordering also carried by t
  out.seq = seq;
  out.t = static_cast<TimeNs>(t);
  out.round = round;
  out.node = static_cast<NodeId>(id);
  out.origin = static_cast<NodeId>(origin);
  out.peer = static_cast<NodeId>(peer);
  out.hop = static_cast<std::uint8_t>(hop & 0xff);
  out.est_ns = static_cast<std::uint32_t>(est & 0xffffffffu);
  return true;
}

using BcastKey = std::pair<Round, NodeId>;

/// First receipt of a broadcast at one node: the earliest recv span
/// (ties broken toward the smaller hop — the shorter path).
struct FirstRecv {
  TimeNs t = 0;
  std::uint8_t hop = 0;
  NodeId from = kInvalidNode;
  std::uint32_t est_ns = 0;
};

}  // namespace

void TraceMerge::add_spans(const std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t TraceMerge::add_dump(std::string_view jsonl) {
  std::size_t accepted = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(start, end - start);
    Span s;
    if (!line.empty() && parse_span_line(line, s)) {
      spans_.push_back(s);
      ++accepted;
    }
    start = end + 1;
  }
  return accepted;
}

std::vector<BroadcastTrace> TraceMerge::broadcasts() const {
  // First receipts, origin stamps and fallback marks per (round, origin).
  std::map<BcastKey, std::map<NodeId, FirstRecv>> first;
  std::map<BcastKey, TimeNs> origin_t;
  std::map<Round, bool> round_fell_back;
  for (const Span& s : spans_) {
    if (s.kind == SpanKind::kFallback) {
      round_fell_back[s.round] = true;
      continue;
    }
    const BcastKey key{s.round, s.origin};
    if (s.kind == SpanKind::kOrigin) {
      origin_t[key] = s.t;
      continue;
    }
    if (s.kind != SpanKind::kRecv) continue;
    // The broadcast looping back to its own origin is the G_R cycle
    // closing, not dissemination: the origin sits at distance 0.
    if (s.node == s.origin) continue;
    auto& per_node = first[key];
    auto it = per_node.find(s.node);
    if (it == per_node.end() || s.t < it->second.t ||
        (s.t == it->second.t && s.hop < it->second.hop)) {
      per_node[s.node] = FirstRecv{s.t, s.hop, s.peer, s.est_ns};
    }
  }

  std::vector<BroadcastTrace> out;
  for (const auto& [key, per_node] : first) {
    BroadcastTrace b;
    b.round = key.first;
    b.origin = key.second;
    b.reached = per_node.size();
    if (const auto it = origin_t.find(key); it != origin_t.end()) {
      b.origin_t = it->second;
    }
    if (const auto it = round_fell_back.find(b.round);
        it != round_fell_back.end()) {
      b.fell_back = it->second;
    }
    // Deepest first receipt: max distance, then latest time.
    NodeId deepest = kInvalidNode;
    for (const auto& [node, fr] : per_node) {
      const std::size_t dist = static_cast<std::size_t>(fr.hop) + 1;
      b.depth = std::max(b.depth, dist);
      b.completed_t = std::max(b.completed_t, fr.t);
      b.max_est_ns = std::max(b.max_est_ns, fr.est_ns);
      if (deepest == kInvalidNode ||
          dist > static_cast<std::size_t>(per_node.at(deepest).hop) + 1 ||
          (dist == static_cast<std::size_t>(per_node.at(deepest).hop) + 1 &&
           fr.t > per_node.at(deepest).t)) {
        deepest = node;
      }
    }
    // Walk the first-receipt parents back to the origin.
    std::vector<TraceStep> path;
    NodeId cur = deepest;
    std::size_t guard = per_node.size() + 1;
    while (cur != kInvalidNode && cur != b.origin && guard-- > 0) {
      const auto it = per_node.find(cur);
      if (it == per_node.end()) break;
      path.push_back(TraceStep{cur, it->second.from,
                               static_cast<std::size_t>(it->second.hop) + 1,
                               it->second.t});
      cur = it->second.from;
    }
    path.push_back(TraceStep{b.origin, kInvalidNode, 0, b.origin_t});
    std::reverse(path.begin(), path.end());
    b.critical_path = std::move(path);
    out.push_back(std::move(b));
  }
  return out;
}

std::size_t TraceMerge::empirical_depth() const {
  std::size_t depth = 0;
  for (const BroadcastTrace& b : broadcasts()) {
    depth = std::max(depth, b.depth);
  }
  return depth;
}

TraceBreakdown TraceMerge::breakdown() const {
  // Phase pairs are matched per (round, origin) on (node[, peer], hop):
  // process/enqueue/send carry the out-hop, recv the in-hop, so the wire
  // edge send(A -> B, h) pairs with recv(at B, from A, h) and the node-
  // local phases chain out-hop h back to in-hop h-1.
  using NodeHop = std::tuple<Round, NodeId, NodeId, std::uint32_t>;
  using EdgeKey = std::tuple<Round, NodeId, NodeId, NodeId, std::uint32_t>;
  std::map<NodeHop, TimeNs> recv_t;     // in-hop
  std::map<NodeHop, TimeNs> process_t;  // out-hop
  std::map<NodeHop, TimeNs> origin_at;  // origin span, hop 0
  std::map<EdgeKey, TimeNs> enqueue_t;  // (node, peer), out-hop
  std::map<EdgeKey, TimeNs> send_t;
  for (const Span& s : spans_) {
    const std::uint32_t hop = s.hop;
    switch (s.kind) {
      case SpanKind::kRecv: {
        const NodeHop k{s.round, s.origin, s.node, hop};
        const auto it = recv_t.find(k);
        if (it == recv_t.end() || s.t < it->second) recv_t[k] = s.t;
        break;
      }
      case SpanKind::kProcess:
        process_t[{s.round, s.origin, s.node, hop}] = s.t;
        break;
      case SpanKind::kOrigin:
        origin_at[{s.round, s.origin, s.node, 0}] = s.t;
        break;
      case SpanKind::kEnqueue:
        enqueue_t[{s.round, s.origin, s.node, s.peer, hop}] = s.t;
        break;
      case SpanKind::kSend:
        send_t[{s.round, s.origin, s.node, s.peer, hop}] = s.t;
        break;
      case SpanKind::kFallback:
        break;
    }
  }
  TraceBreakdown out;
  for (const auto& [k, t] : process_t) {
    const auto& [round, origin, node, hop] = k;
    if (hop == 0) continue;
    const auto it = recv_t.find({round, origin, node, hop - 1});
    if (it != recv_t.end() && t >= it->second) {
      out.process_ns += static_cast<double>(t - it->second);
    }
  }
  for (const auto& [k, t] : enqueue_t) {
    const auto& [round, origin, node, peer, hop] = k;
    const auto pit = process_t.find({round, origin, node, hop});
    if (pit != process_t.end() && t >= pit->second) {
      out.queue_ns += static_cast<double>(t - pit->second);
    } else if (const auto oit = origin_at.find({round, origin, node, hop});
               oit != origin_at.end() && t >= oit->second) {
      out.queue_ns += static_cast<double>(t - oit->second);
    }
    const auto sit = send_t.find(k);
    if (sit != send_t.end() && sit->second >= t) {
      out.serialize_ns += static_cast<double>(sit->second - t);
    }
  }
  for (const auto& [k, t] : recv_t) {
    const auto& [round, origin, node, hop] = k;
    // The matching send names this node as its peer; scan the senders.
    for (const auto& [sk, st] : send_t) {
      const auto& [sround, sorigin, snode, speer, shop] = sk;
      if (sround == round && sorigin == origin && speer == node &&
          shop == hop && t >= st) {
        out.wire_ns += static_cast<double>(t - st);
        ++out.hops;
        break;
      }
    }
  }
  return out;
}

std::string TraceMerge::chrome_trace_json() const {
  // One track (pid) per node; per-broadcast residency slices plus flow
  // arrows across wire edges. ts/dur are microseconds (trace-event spec).
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  bool first_ev = true;
  const auto emit = [&](const char* s) {
    if (!first_ev) out += ",\n";
    first_ev = false;
    out += s;
  };
  std::map<NodeId, bool> named;
  const auto name_node = [&](NodeId node) {
    if (named[node]) return;
    named[node] = true;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %llu, "
                  "\"tid\": 0, \"args\": {\"name\": \"node%llu\"}}",
                  static_cast<unsigned long long>(node),
                  static_cast<unsigned long long>(node));
    emit(buf);
  };
  // Residency slices: [first span, last span] of each (round, origin)
  // broadcast at each node.
  std::map<std::tuple<Round, NodeId, NodeId>,
           std::pair<TimeNs, TimeNs>> residency;
  for (const Span& s : spans_) {
    if (s.kind == SpanKind::kFallback) continue;
    auto& r = residency[{s.round, s.origin, s.node}];
    if (r.first == 0 && r.second == 0) {
      r = {s.t, s.t};
    } else {
      r.first = std::min(r.first, s.t);
      r.second = std::max(r.second, s.t);
    }
  }
  for (const auto& [key, span] : residency) {
    const auto& [round, origin, node] = key;
    name_node(node);
    const double ts = static_cast<double>(span.first) / 1000.0;
    const double dur =
        std::max(0.001, static_cast<double>(span.second - span.first) / 1000.0);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"r%llu o%llu\", \"cat\": \"bcast\", "
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": %llu, \"tid\": 0}",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(origin),
                  ts, dur, static_cast<unsigned long long>(node));
    emit(buf);
  }
  // Flow arrows: one s/f pair per send span (the matching recv, when the
  // dump retained it, is found the same way breakdown() matches edges).
  std::uint64_t flow_id = 0;
  for (const Span& s : spans_) {
    if (s.kind != SpanKind::kSend) continue;
    const Span* recv = nullptr;
    for (const Span& r : spans_) {
      if (r.kind == SpanKind::kRecv && r.round == s.round &&
          r.origin == s.origin && r.node == s.peer && r.peer == s.node &&
          r.hop == s.hop && r.t >= s.t) {
        recv = &r;
        break;
      }
    }
    if (recv == nullptr) continue;
    name_node(s.node);
    name_node(recv->node);
    ++flow_id;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"hop\", \"cat\": \"wire\", \"ph\": \"s\", "
                  "\"id\": %llu, \"ts\": %.3f, \"pid\": %llu, \"tid\": 0}",
                  static_cast<unsigned long long>(flow_id),
                  static_cast<double>(s.t) / 1000.0,
                  static_cast<unsigned long long>(s.node));
    emit(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"hop\", \"cat\": \"wire\", \"ph\": \"f\", "
                  "\"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, "
                  "\"pid\": %llu, \"tid\": 0}",
                  static_cast<unsigned long long>(flow_id),
                  static_cast<double>(recv->t) / 1000.0,
                  static_cast<unsigned long long>(recv->node));
    emit(buf);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace allconcur::obs
