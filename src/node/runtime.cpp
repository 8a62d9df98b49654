#include "node/runtime.hpp"

#include "common/assert.hpp"

namespace allconcur::node {

NodeRuntime::NodeRuntime(NodeId self, core::View view, Round start_round,
                         const NodeOptions& options, const TimeNs* clock,
                         SendFn send, DeliverFn deliver,
                         const obs::Histogram* hop_histogram)
    : self_(self), clock_(clock), deliver_(std::move(deliver)) {
  core::EngineOptions eopts;
  eopts.fd_mode = options.fd_mode;
  eopts.window = options.window;
  eopts.fast_builder = options.fast_builder;
  ALLCONCUR_ASSERT(options.trace_sample_period == 0 || options.flight_recorder,
                   "trace_sample_period != 0 needs flight_recorder: causal-"
                   "trace spans are kept in the flight recorder");
  if (options.flight_recorder) {
    recorder_.emplace(options.recorder_capacity, /*enabled=*/true);
    recorder_->set_time_source(clock);
    eopts.recorder = &*recorder_;
  }
  tracing_ = options.trace_sample_period != 0;
  eopts.trace_sample_period = options.trace_sample_period;
  eopts.hop_histogram = hop_histogram;
  core::Engine::Hooks hooks;
  hooks.send = send;
  hooks.deliver = [this](const core::RoundResult& r) { on_deliver(r); };
  engine_.emplace(self, std::move(view), options.builder, std::move(hooks),
                  eopts, start_round);
  if (options.heartbeat_fd) {
    core::HeartbeatFd::Hooks fd_hooks;
    fd_hooks.send = std::move(send);
    fd_hooks.suspect = [this](NodeId suspect) { engine_->on_suspect(suspect); };
    fd_.emplace(self, options.fd_params, std::move(fd_hooks));
    repeer_fd();
  }
  if (options.fast_builder && options.fallback_timeout > 0) {
    watchdog_.emplace(options.fallback_timeout);
    watchdog_->set_recorder(recorder());
  }
}

void NodeRuntime::receive(NodeId src, const core::Message& msg, TimeNs now) {
  if (fd_) fd_->on_heartbeat(src, now);
  if (msg.type == core::MsgType::kHeartbeat) return;
  trace(obs::SpanKind::kRecv, msg, src);
  engine_->on_message(src, msg);
}

void NodeRuntime::tick_fd(TimeNs now) {
  if (fd_) fd_->tick(now);
}

void NodeRuntime::poll_watchdog(TimeNs now) {
  if (!watchdog_ || engine_->departed()) return;
  if (const auto stuck = watchdog_->poll(
          engine_->current_round(), engine_->front_round_progress(), now)) {
    engine_->on_round_timeout(*stuck);
  }
}

void NodeRuntime::on_deliver(const core::RoundResult& result) {
  if (fd_ && (!result.joined.empty() || !result.removed.empty()) &&
      !engine_->departed()) {
    repeer_fd();
  }
  deliver_(result);
}

void NodeRuntime::repeer_fd() {
  // Dual mode monitors the union overlay: a fallback's tracking liveness
  // needs every G_U ∪ G_R successor of a crashed server to suspect it.
  const core::View& view = engine_->view();
  fd_->set_peers(view.monitor_successors_of(self_),
                 view.monitor_predecessors_of(self_), *clock_);
}

}  // namespace allconcur::node
