#include "obs/recorder.hpp"

#include <sys/stat.h>

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace allconcur::obs {

const char* event_name(EventKind k) {
  switch (k) {
    case EventKind::kRoundOpen: return "round_open";
    case EventKind::kBcastSent: return "bcast_sent";
    case EventKind::kMsgRecv: return "msg_recv";
    case EventKind::kFastComplete: return "fast_complete";
    case EventKind::kComplete: return "complete";
    case EventKind::kFallbackInit: return "fallback_init";
    case EventKind::kFallbackRecv: return "fallback_recv";
    case EventKind::kFallbackEnter: return "fallback_enter";
    case EventKind::kFallbackAssist: return "fallback_assist";
    case EventKind::kDelivered: return "delivered";
    case EventKind::kFailureLearned: return "failure_learned";
    case EventKind::kSuspect: return "suspect";
    case EventKind::kParked: return "parked";
    case EventKind::kDroppedAhead: return "dropped_ahead";
    case EventKind::kDroppedMsg: return "dropped_msg";
    case EventKind::kTimerArm: return "timer_arm";
    case EventKind::kTimerRearm: return "timer_rearm";
    case EventKind::kTimerFire: return "timer_fire";
    case EventKind::kChaosInject: return "chaos_inject";
    case EventKind::kChaosPhase: return "chaos_phase";
    case EventKind::kInvariantTrip: return "invariant_trip";
  }
  return "unknown";
}

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kStale: return "stale";
    case DropReason::kSuspectedOrigin: return "suspected_origin";
    case DropReason::kForeignEpoch: return "foreign_epoch";
    case DropReason::kLostRace: return "lost_race";
  }
  return "unknown";
}

const char* trip_code_name(TripCode c) {
  switch (c) {
    case TripCode::kSmrHashDivergence: return "smr_hash_divergence";
    case TripCode::kCorruptDelivered: return "corrupt_delivered";
    case TripCode::kPropertyViolation: return "property_violation";
  }
  return "unknown";
}

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kOrigin: return "origin";
    case SpanKind::kRecv: return "recv";
    case SpanKind::kProcess: return "process";
    case SpanKind::kEnqueue: return "enqueue";
    case SpanKind::kSend: return "send";
    case SpanKind::kFallback: return "fallback";
  }
  return "unknown";
}

namespace {

/// One event as a dump_text line: [label] seq=12 t=3400 r=7 delivered ...
void append_text_line(std::string& out, const std::string& label,
                      const Event& e) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "[%s] seq=%llu t=%lld r=%llu %s a=%llu b=%llu\n",
                label.c_str(), static_cast<unsigned long long>(e.seq),
                static_cast<long long>(e.t),
                static_cast<unsigned long long>(e.round), event_name(e.kind),
                static_cast<unsigned long long>(e.a),
                static_cast<unsigned long long>(e.b));
  out += line;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity, bool enabled)
    : enabled_(enabled) {
  if (capacity < 2) capacity = 2;
  capacity = std::bit_ceil(capacity);
  ring_.resize(capacity);
  mask_ = capacity - 1;
}

std::vector<Event> FlightRecorder::events() const {
  std::vector<Event> out;
  out.reserve(size());
  for (std::uint64_t seq = first_seq(); seq < head_; ++seq) {
    const Slot& s = ring_[seq & mask_];
    if ((s.rk & kSpanTag) != 0) continue;
    out.push_back(Event{seq, s.t, s.rk & kRoundMask,
                        static_cast<EventKind>(s.rk >> kKindShift), s.a,
                        s.b});
  }
  return out;
}

std::vector<Event> FlightRecorder::events_for_round(Round r) const {
  std::vector<Event> out;
  for (const Event& e : events()) {
    if (e.round == r) out.push_back(e);
  }
  return out;
}

std::vector<Span> FlightRecorder::spans(NodeId self) const {
  std::vector<Span> out;
  for (std::uint64_t seq = first_seq(); seq < head_; ++seq) {
    const Slot& s = ring_[seq & mask_];
    if ((s.rk & kSpanTag) == 0) continue;
    Span sp;
    sp.seq = seq;
    sp.t = s.t;
    sp.round = s.rk & kRoundMask;
    sp.kind = static_cast<SpanKind>((s.rk & ~kSpanTag) >> kKindShift);
    sp.node = self;
    sp.origin = static_cast<NodeId>(s.a >> 32);
    sp.peer = static_cast<NodeId>(s.a & 0xffffffffu);
    sp.hop = static_cast<std::uint8_t>(s.b >> 32);
    sp.est_ns = static_cast<std::uint32_t>(s.b & 0xffffffffu);
    out.push_back(sp);
  }
  return out;
}

std::string FlightRecorder::dump_text(const std::string& label) const {
  std::string out;
  for (const Event& e : events()) append_text_line(out, label, e);
  return out;
}

std::string FlightRecorder::dump_json(const std::string& label) const {
  std::string out;
  char line[320];
  for (const Event& e : events()) {
    std::snprintf(line, sizeof(line),
                  "{\"node\": \"%s\", \"seq\": %llu, \"t\": %lld, "
                  "\"round\": %llu, \"event\": \"%s\", \"a\": %llu, "
                  "\"b\": %llu}\n",
                  label.c_str(), static_cast<unsigned long long>(e.seq),
                  static_cast<long long>(e.t),
                  static_cast<unsigned long long>(e.round),
                  event_name(e.kind), static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += line;
  }
  return out;
}

std::string FlightRecorder::dump_spans_json(const std::string& label,
                                            NodeId self) const {
  std::string out;
  char line[320];
  for (const Span& s : spans(self)) {
    std::snprintf(line, sizeof(line),
                  "{\"node\": \"%s\", \"id\": %llu, \"seq\": %llu, "
                  "\"t\": %lld, \"round\": %llu, \"span\": \"%s\", "
                  "\"origin\": %llu, \"peer\": %llu, \"hop\": %u, "
                  "\"est\": %llu}\n",
                  label.c_str(), static_cast<unsigned long long>(s.node),
                  static_cast<unsigned long long>(s.seq),
                  static_cast<long long>(s.t),
                  static_cast<unsigned long long>(s.round),
                  span_name(s.kind),
                  static_cast<unsigned long long>(s.origin),
                  static_cast<unsigned long long>(s.peer),
                  static_cast<unsigned>(s.hop),
                  static_cast<unsigned long long>(s.est_ns));
    out += line;
  }
  return out;
}

std::vector<std::string> dump_on_trip(
    const std::string& reason,
    const std::vector<std::pair<NodeId, const FlightRecorder*>>& nodes) {
  std::vector<std::string> written;
  bool traced = false;
  const char* dir = std::getenv("ALLCONCUR_FLIGHT_DIR");
  const bool to_dir = dir != nullptr && dir[0] != '\0';
  if (to_dir) ::mkdir(dir, 0755);  // best effort; single level is all CI needs
  // Always narrate the tail to stderr: even without a dump dir a failing
  // CI log shows the last events of every replica's timeline.
  std::fprintf(stderr, "=== flight recorder trip: %s ===\n", reason.c_str());
  for (const auto& [id, rec] : nodes) {
    if (rec == nullptr) continue;
    const std::string label = "node" + std::to_string(id);
    if (to_dir) {
      const auto write = [&](const char* kind, const std::string& body) {
        const std::string path = std::string(dir) + "/" + kind + "_" +
                                 reason + "_" + label + ".jsonl";
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          std::fwrite(body.data(), 1, body.size(), f);
          std::fclose(f);
          written.push_back(path);
        }
      };
      write("flight", rec->dump_json(label));
      // Spans exist only when trace sampling is on.
      const std::string spans = rec->dump_spans_json(label, id);
      if (!spans.empty()) {
        write("trace", spans);
        traced = true;
      }
    }
    const auto evs = rec->events();
    std::string tail;
    for (std::size_t i = evs.size() > 16 ? evs.size() - 16 : 0;
         i < evs.size(); ++i) {
      append_text_line(tail, label, evs[i]);
    }
    std::fputs(tail.c_str(), stderr);
  }
  if (!written.empty()) {
    std::fprintf(stderr, "flight dumps written to %s (%zu files)%s\n", dir,
                 written.size(),
                 traced ? "; merge trace_*.jsonl with allconcur_trace --in"
                        : "");
  }
  return written;
}

}  // namespace allconcur::obs
