// Integration tests over real localhost TCP sockets: the same engine that
// runs under the simulator, driven by the epoll transport.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "obs/inspect.hpp"
#include "obs/trace.hpp"
#include "tcp_cluster.hpp"

namespace allconcur::net {
namespace {

using core::Request;
using core::RoundResult;
using testing::TcpCluster;

std::vector<NodeId> origins(const RoundResult& r) {
  std::vector<NodeId> out;
  for (const auto& d : r.deliveries) out.push_back(d.origin);
  return out;
}

TEST(TcpCluster, SingleRoundDeliversEverywhere) {
  TcpCluster c(5);
  for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
  ASSERT_TRUE(c.wait_rounds({0, 1, 2, 3, 4}, 1, sec(10)));
  for (NodeId i = 0; i < 5; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), 1u) << "node " << i;
    EXPECT_EQ(rounds[0].deliveries.size(), 5u);
    EXPECT_TRUE(rounds[0].removed.empty());
  }
}

TEST(TcpCluster, ConstructedNodeAlreadyAcceptsConnections) {
  // A node listens from construction on, before run(): a peer whose loop
  // starts first connects at its first attempt instead of sleeping out
  // refused connects until this node's loop comes up.
  const std::uint16_t base = pick_free_port_base(2, testing::test_seed());
  TcpNodeOptions opt;
  opt.self = 0;
  opt.members = {0, 1};
  opt.base_port = base;
  TcpNode node(opt, nullptr);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(base);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  ::close(fd);
}

/// Node `origin`'s batch in round `r`, or nullopt when it is missing or
/// malformed.
std::optional<std::vector<Request>> batch_of(const RoundResult& r,
                                             NodeId origin) {
  for (const auto& d : r.deliveries) {
    if (d.origin == origin) return core::unpack_batch(d.payload);
  }
  return std::nullopt;
}

TEST(TcpCluster, PayloadSurvivesTheWire) {
  TcpCluster c(5);
  const std::vector<NodeId> all{0, 1, 2, 3, 4};
  const std::vector<std::uint8_t> blob{0xca, 0xfe, 0xba, 0xbe, 0x00, 0x42};
  c.node(2).submit(Request::of_data(blob));
  // A peer's round-0 BCAST can reach node 2 before node 2 drains its
  // submit; node 2 then joins round 0 with an empty batch and the blob
  // rides in the next round node 2 broadcasts in. Drive rounds until node
  // 2's batch is not empty.
  std::optional<std::size_t> blob_round;
  for (std::uint64_t r = 1; r <= 3 && !blob_round; ++r) {
    for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
    ASSERT_TRUE(c.wait_rounds(all, r, sec(10)));
    const auto rounds = c.delivered(0);
    for (std::size_t k = 0; k < rounds.size() && !blob_round; ++k) {
      const auto batch = batch_of(rounds[k], 2);
      ASSERT_TRUE(batch.has_value()) << "round " << k;
      if (!batch->empty()) blob_round = k;
    }
  }
  ASSERT_TRUE(blob_round.has_value()) << "node 2 never broadcast the blob";
  for (NodeId i = 0; i < 5; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GT(rounds.size(), *blob_round) << "node " << i;
    std::size_t copies = 0;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      const auto batch = batch_of(rounds[k], 2);
      ASSERT_TRUE(batch.has_value()) << "node " << i << " round " << k;
      copies += batch->size();
      if (k == *blob_round) {
        ASSERT_EQ(batch->size(), 1u) << "node " << i;
        EXPECT_EQ((*batch)[0].data, blob) << "node " << i;
      }
    }
    EXPECT_EQ(copies, 1u) << "node " << i;
  }
}

TEST(TcpCluster, ManyRoundsStayConsistent) {
  TcpCluster c(5);
  const std::uint64_t kRounds = 20;
  // Drive rounds from a pump thread: each node re-broadcasts as soon as
  // its previous round completes.
  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done.load()) {
      for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const bool ok = c.wait_rounds({0, 1, 2, 3, 4}, kRounds, sec(30));
  done.store(true);
  pump.join();
  ASSERT_TRUE(ok);
  // All nodes delivered identical rounds.
  const auto reference = c.delivered(0);
  for (NodeId i = 1; i < 5; ++i) {
    const auto rounds = c.delivered(i);
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(origins(rounds[r]), origins(reference[r]))
          << "node " << i << " round " << r;
    }
  }
}

TEST(TcpCluster, GsOverlayAcrossSockets) {
  // 8 nodes -> GS(8,3): messages reach everyone through relays only.
  TcpCluster c(8);
  c.node(0).submit(Request::of_data({1, 2, 3}));
  for (NodeId i = 0; i < 8; ++i) c.node(i).broadcast_now();
  std::vector<NodeId> all(8);
  for (NodeId i = 0; i < 8; ++i) all[i] = i;
  ASSERT_TRUE(c.wait_rounds(all, 1, sec(10)));
  for (NodeId i = 0; i < 8; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), 1u);
    EXPECT_EQ(rounds[0].deliveries.size(), 8u);
  }
}

TEST(TcpCluster, BackpressurePreservesFrameIntegrityAndOrder) {
  // Tiny kernel send buffers + large payloads force partial vectored
  // writes (short sendmsg / EAGAIN parking): every frame must still
  // arrive intact, and rounds must deliver in order everywhere.
  const std::size_t kNodes = 4;
  const std::uint64_t kRounds = 5;
  const std::size_t kBlob = 256 * 1024;
  // Heartbeats off: they share the links, and a saturated 4 KiB send
  // buffer delays them past any sane timeout — this test measures frame
  // integrity under backpressure, not failure detection under it.
  TcpCluster c(kNodes, core::FdMode::kPerfect, ms(250),
               [](TcpNodeOptions& o) {
                 o.sndbuf_bytes = 4096;
                 o.heartbeat_fd = false;
               });

  const auto blob_for = [&](NodeId node, std::uint64_t seq) {
    return std::vector<std::uint8_t>(
        kBlob, static_cast<std::uint8_t>(0x11 * (node + 1) + seq));
  };
  std::vector<NodeId> all(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) all[i] = i;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (NodeId i = 0; i < kNodes; ++i) {
      c.node(i).submit(Request::of_data(blob_for(i, r)));
      c.node(i).broadcast_now();
    }
    ASSERT_TRUE(c.wait_rounds(all, r + 1, sec(30))) << "round " << r;
  }
  // A submit may miss the round of its paired broadcast_now (the reactive
  // broadcast can fire first with an empty batch) and ride a later one;
  // drive two empty rounds so every blob has flushed.
  const std::uint64_t kTotal = kRounds + 2;
  for (std::uint64_t r = kRounds; r < kTotal; ++r) {
    for (NodeId i = 0; i < kNodes; ++i) c.node(i).broadcast_now();
    ASSERT_TRUE(c.wait_rounds(all, r + 1, sec(30))) << "flush round " << r;
  }

  std::uint64_t partials = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    const auto ns = c.node(i).net_stats();
    partials += ns.partial_writes + ns.eagain_waits;
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), kTotal) << "node " << i;
    // Integrity + ordering: concatenating every data request delivered
    // from origin j (across rounds and batch boundaries) must reproduce
    // j's blobs exactly, byte for byte and in submission order.
    std::vector<std::vector<std::uint8_t>> by_origin(kNodes);
    for (std::uint64_t r = 0; r < kTotal; ++r) {
      EXPECT_EQ(rounds[r].round, r) << "node " << i;
      ASSERT_EQ(rounds[r].deliveries.size(), kNodes);
      for (const auto& d : rounds[r].deliveries) {
        const auto batch = core::unpack_batch(d.payload);
        ASSERT_TRUE(batch.has_value()) << "node " << i << " round " << r;
        for (const auto& req : *batch) {
          by_origin[d.origin].insert(by_origin[d.origin].end(),
                                     req.data.begin(), req.data.end());
        }
      }
    }
    for (NodeId j = 0; j < kNodes; ++j) {
      std::vector<std::uint8_t> expected;
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        const auto blob = blob_for(j, r);
        expected.insert(expected.end(), blob.begin(), blob.end());
      }
      EXPECT_EQ(by_origin[j], expected) << "node " << i << " origin " << j;
    }
  }
  // 256 KiB frames against 4 KiB send buffers: the writers must have hit
  // backpressure — otherwise this test is not testing what it claims.
  EXPECT_GT(partials, 0u);
}

TEST(TcpCluster, FlushCoalescesFramesIntoFewerSyscalls) {
  // Relays and the reactive own-broadcast are queued inside one event-loop
  // wake and must leave in one vectored write per peer: across a busy run
  // the transport issues strictly fewer sendmsg calls than frames.
  TcpCluster c(5);
  const std::uint64_t kRounds = 20;
  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done.load()) {
      for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const bool ok = c.wait_rounds({0, 1, 2, 3, 4}, kRounds, sec(30));
  done.store(true);
  pump.join();
  ASSERT_TRUE(ok);
  std::uint64_t frames = 0, syscalls = 0;
  for (NodeId i = 0; i < 5; ++i) {
    const auto ns = c.node(i).net_stats();
    frames += ns.frames_sent;
    syscalls += ns.sendmsg_calls;
  }
  EXPECT_GT(frames, 0u);
  EXPECT_LT(syscalls, frames)
      << "vectored flush never batched two frames into one syscall";
}

TEST(TcpCluster, CrashDetectedByHeartbeatTimeout) {
  TcpCluster c(5, core::FdMode::kPerfect, /*fd_timeout=*/ms(250));
  // Round 0 completes with everyone.
  for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
  ASSERT_TRUE(c.wait_rounds({0, 1, 2, 3, 4}, 1, sec(10)));
  // Node 4 dies. Depending on how far its event loop got before exiting,
  // its round-1 message may or may not have escaped (fail-stop timing is
  // inherently racy on real sockets) — but within a couple of rounds the
  // survivors must evict it, and all views must agree on every round.
  c.crash(4);
  bool evicted = false;
  std::uint64_t target_rounds = 1;
  for (int attempt = 0; attempt < 5 && !evicted; ++attempt) {
    ++target_rounds;
    for (NodeId i = 0; i < 4; ++i) c.node(i).broadcast_now();
    ASSERT_TRUE(c.wait_rounds({0, 1, 2, 3}, target_rounds, sec(30)))
        << "stalled waiting for round " << target_rounds;
    const auto rounds = c.delivered(0);
    if (rounds.back().removed == std::vector<NodeId>{4}) evicted = true;
  }
  ASSERT_TRUE(evicted) << "node 4 never evicted";
  const auto reference = c.delivered(0);
  for (NodeId i = 1; i < 4; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), reference.size()) << "node " << i;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(origins(rounds[r]), origins(reference[r]))
          << "node " << i << " round " << r;
      EXPECT_EQ(rounds[r].removed, reference[r].removed)
          << "node " << i << " round " << r;
    }
  }
}

TEST(TcpCluster, SecondCrashAfterARemovalIsDetectedOverTheNewOverlay) {
  // §3.2: successors detect missing heartbeats per the *current* G. Node
  // 7's removal turns GS(8,3) into GS(7,3), whose edges the first overlay
  // partly lacks (4->2, 5->1, 6->2). Each node must re-point its detector
  // at the new overlay and dial its new successors: otherwise a quiet
  // phase raises false suspicions on never-dialed links, and node 6's
  // later crash is never detected.
  constexpr std::size_t kNodes = 8;
  TcpCluster c(kNodes, core::FdMode::kPerfect, /*fd_timeout=*/ms(250));
  std::uint64_t target_rounds = 0;
  // Drives rounds on `survivors` until `victim` is reported removed.
  const auto drive_until_removed = [&](const std::vector<NodeId>& survivors,
                                       NodeId victim) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      ++target_rounds;
      for (NodeId i : survivors) c.node(i).broadcast_now();
      if (!c.wait_rounds(survivors, target_rounds, sec(10))) return false;
      if (c.delivered(survivors[0]).back().removed ==
          std::vector<NodeId>{victim}) {
        return true;
      }
    }
    return false;
  };
  const auto drive_rounds = [&](const std::vector<NodeId>& survivors,
                                int rounds) {
    for (int r = 0; r < rounds; ++r) {
      ++target_rounds;
      for (NodeId i : survivors) c.node(i).broadcast_now();
      if (!c.wait_rounds(survivors, target_rounds, sec(10))) return false;
    }
    return true;
  };
  const std::vector<NodeId> seven = {0, 1, 2, 3, 4, 5, 6};
  const std::vector<NodeId> six = {0, 1, 2, 3, 4, 5};

  ASSERT_TRUE(drive_rounds({0, 1, 2, 3, 4, 5, 6, 7}, 1));
  c.crash(7);
  ASSERT_TRUE(drive_until_removed(seven, 7)) << "node 7 never evicted";
  // Two rounds over GS(7,3); the last delivery orders every earlier FAIL
  // before the counter reads below.
  ASSERT_TRUE(drive_rounds(seven, 2));
  const auto fails_sent = [&] {
    std::uint64_t sum = 0;
    for (NodeId i : seven) sum += c.node(i).stats().fail_sent;
    return sum;
  };
  const std::uint64_t fails_before = fails_sent();
  // Quiet phase: no rounds, only heartbeats, for several FD timeouts.
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(testing::scaled(ms(1500))));
  EXPECT_EQ(fails_sent(), fails_before)
      << "false suspicions during the quiet phase";

  c.crash(6);
  ASSERT_TRUE(drive_until_removed(six, 6)) << "node 6 never evicted";
  c.shutdown();
  const auto reference = c.delivered(0);
  for (NodeId i : six) {
    const auto rounds = c.delivered(i);
    ASSERT_EQ(rounds.size(), reference.size()) << "node " << i;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      EXPECT_EQ(origins(rounds[r]), origins(reference[r]))
          << "node " << i << " round " << r;
      EXPECT_EQ(rounds[r].removed, reference[r].removed)
          << "node " << i << " round " << r;
    }
  }
}

TEST(TcpCluster, EngineAndWireByteCountersReconcile) {
  // The documented identity (obs/schema.hpp): with heartbeats off and no
  // chaos, every byte the wire counts is either an engine-produced frame
  // or a connection hello —
  //   net.bytes_sent == engine.bytes_sent + net.preamble_bytes
  // — exactly, once the send queues flush.
  const std::size_t kNodes = 4;
  TcpCluster c(kNodes, core::FdMode::kPerfect, ms(250),
               [](TcpNodeOptions& o) { o.heartbeat_fd = false; });
  std::vector<NodeId> all(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) all[i] = i;
  for (std::uint64_t r = 0; r < 5; ++r) {
    for (NodeId i = 0; i < kNodes; ++i) {
      c.node(i).submit(Request::of_data({static_cast<std::uint8_t>(r), 1, 2}));
      c.node(i).broadcast_now();
    }
    ASSERT_TRUE(c.wait_rounds(all, r + 1, sec(30))) << "round " << r;
  }
  // Relays for the last round may still be in flight when the local
  // delivery fires; poll until every node's counters settle on the
  // identity, then assert it held.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool reconciled = false;
  while (!reconciled && std::chrono::steady_clock::now() < deadline) {
    reconciled = true;
    for (NodeId i = 0; i < kNodes; ++i) {
      const auto ns = c.node(i).net_stats();
      const auto& es = c.node(i).stats();
      if (ns.bytes_sent != es.bytes_sent + ns.preamble_bytes) {
        reconciled = false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        break;
      }
    }
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    const auto ns = c.node(i).net_stats();
    const auto& es = c.node(i).stats();
    EXPECT_EQ(ns.bytes_sent, es.bytes_sent + ns.preamble_bytes)
        << "node " << i << ": net=" << ns.bytes_sent
        << " engine=" << es.bytes_sent << " preamble=" << ns.preamble_bytes;
    EXPECT_GT(ns.preamble_bytes, 0u) << "node " << i;
  }
}

TEST(TcpCluster, AdminEndpointServesLiveMetricsAndRecorder) {
  // The introspection plane end to end: a real admin listener on each
  // node, queried over loopback HTTP by the same code path the
  // allconcur_inspect CLI runs (obs::run_inspect / obs::admin_fetch).
  const std::size_t kNodes = 4;
  std::uint16_t admin_base = 0;
  TcpCluster c(kNodes, core::FdMode::kPerfect, ms(250),
               [&admin_base](TcpNodeOptions& o) {
                 // The block TcpCluster keeps free above the protocol
                 // ports, same layout rule (admin_port + self).
                 admin_base = static_cast<std::uint16_t>(o.base_port + kNodes);
                 o.admin_port = admin_base;
               });
  for (NodeId i = 0; i < kNodes; ++i) c.node(i).broadcast_now();
  std::vector<NodeId> all(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) all[i] = i;
  ASSERT_TRUE(c.wait_rounds(all, 1, sec(10)));

  // Health probe on every node.
  for (NodeId i = 0; i < kNodes; ++i) {
    const auto health = obs::admin_fetch(
        static_cast<std::uint16_t>(admin_base + i), "/healthz");
    ASSERT_TRUE(health.has_value()) << "node " << i;
    EXPECT_EQ(*health, "ok\n");
  }

  // Live metrics: the JSON exposition must carry the rounds the node
  // actually completed (>= 1 after the round above).
  const auto json = obs::admin_fetch(admin_base, "/metrics.json");
  ASSERT_TRUE(json.has_value());
  const auto key = json->find("\"engine_rounds_completed\"");
  ASSERT_NE(key, std::string::npos) << *json;
  const auto value_at = json->find("\"value\": ", key);
  ASSERT_NE(value_at, std::string::npos) << *json;
  EXPECT_GE(std::atoll(json->c_str() + value_at + 9), 1) << *json;
  EXPECT_NE(json->find("\"net_bytes_sent\""), std::string::npos);
  EXPECT_NE(json->find("\"net_preamble_bytes\""), std::string::npos);

  // Prometheus exposition through the CLI entry point (run_inspect is
  // allconcur_inspect's whole body).
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(obs::run_inspect(admin_base, "/metrics", out), 0);
  std::rewind(out);
  std::string prom;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof(buf), out)) > 0;) {
    prom.append(buf, got);
  }
  std::fclose(out);
  EXPECT_NE(prom.find("# TYPE allconcur_engine_rounds_completed counter"),
            std::string::npos)
      << prom.substr(0, 512);
  EXPECT_NE(prom.find("allconcur_net_bytes_sent"), std::string::npos);

  // The flight recorder over the wire: node 0 broadcast and delivered
  // round 0, so its timeline must show both.
  const auto recorder = obs::admin_fetch(admin_base, "/recorder");
  ASSERT_TRUE(recorder.has_value());
  EXPECT_NE(recorder->find("\"event\": \"bcast_sent\""), std::string::npos);
  EXPECT_NE(recorder->find("\"event\": \"delivered\""), std::string::npos);
  EXPECT_NE(recorder->find("\"node\": \"node0\""), std::string::npos);

  // Unknown paths 404 through admin_fetch's status check — surfaced as a
  // distinct status (and exit code 4 through run_inspect).
  obs::FetchStatus st = obs::FetchStatus::kOk;
  EXPECT_FALSE(obs::admin_fetch(admin_base, "/nope", 2000, &st).has_value());
  EXPECT_EQ(st, obs::FetchStatus::kHttpError);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(obs::run_inspect(admin_base, "/nope", sink), 4);
  std::fclose(sink);
}

TEST(TcpCluster, AdminFetchReportsConnectFailureDistinctly) {
  // Nothing listens here: the status must say connect failure, not
  // timeout, and run_inspect must exit 1 (vs 3 for a timeout).
  obs::FetchStatus st = obs::FetchStatus::kOk;
  EXPECT_FALSE(obs::admin_fetch(1, "/healthz", 200, &st).has_value());
  EXPECT_EQ(st, obs::FetchStatus::kConnectFail);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(obs::run_inspect(1, "/healthz", sink, 200), 1);
  std::fclose(sink);
}

TEST(TcpCluster, TraceRouteServesSampledSpansAcrossNodes) {
  // The causal tracer end to end over real sockets: every round sampled,
  // spans fetched over the admin `/trace` route (the same path
  // tools/allconcur_trace walks) and merged into the propagation DAG.
  const std::size_t kNodes = 4;
  std::uint16_t admin_base = 0;
  TcpCluster c(kNodes, core::FdMode::kPerfect, ms(250),
               [&admin_base](TcpNodeOptions& o) {
                 admin_base = static_cast<std::uint16_t>(o.base_port + kNodes);
                 o.admin_port = admin_base;
                 o.trace_sample_period = 1;
               });
  for (NodeId i = 0; i < kNodes; ++i) c.node(i).broadcast_now();
  std::vector<NodeId> all(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) all[i] = i;
  ASSERT_TRUE(c.wait_rounds(all, 1, sec(10)));

  obs::TraceMerge merge;
  for (NodeId i = 0; i < kNodes; ++i) {
    const auto dump = obs::admin_fetch(
        static_cast<std::uint16_t>(admin_base + i), "/trace");
    ASSERT_TRUE(dump.has_value()) << "node " << i;
    EXPECT_GT(merge.add_dump(*dump), 0u) << "node " << i;
  }
  const auto broadcasts = merge.broadcasts();
  ASSERT_FALSE(broadcasts.empty());
  bool saw_round0 = false;
  for (const auto& b : broadcasts) {
    if (b.round != 0) continue;
    saw_round0 = true;
    // Over GS(4, d) every broadcast reaches the other 3 nodes.
    EXPECT_EQ(b.reached, kNodes - 1) << "origin " << b.origin;
    EXPECT_GE(b.depth, 1u);
    EXPECT_LT(b.depth, kNodes);
  }
  EXPECT_TRUE(saw_round0);
  // The per-hop relay latency histogram is live on the metrics plane too.
  const auto prom = obs::admin_fetch(admin_base, "/metrics");
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->find("allconcur_relay_hop_latency_ns_count"),
            std::string::npos);
}

TEST(TcpCluster, EventsCarryTheWakeTimeNotTheSleepTime) {
  // Recorder events are stamped with the event-loop clock. It must be read
  // when epoll_wait returns: a clock read before the sleep stamps what the
  // wake delivers with the time the loop went idle.
  TcpCluster c(3, core::FdMode::kPerfect, ms(250),
               [](TcpNodeOptions& o) { o.heartbeat_fd = false; });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const TimeNs t0 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
  c.node(0).submit(Request::of_data({7}));
  c.node(0).broadcast_now();
  ASSERT_TRUE(c.wait_rounds({0, 1, 2}, 1, sec(10)));
  c.shutdown();

  bool saw_open = false, saw_recv = false;
  for (const auto& e : c.node(1).recorder().events()) {
    if (e.round != 0) continue;
    if (e.kind == obs::EventKind::kRoundOpen && !saw_open) {
      // Round 0 opens in the constructor, before run() reads any clock.
      saw_open = true;
      EXPECT_GT(e.t, 0) << "pre-run round open carries no timestamp";
    }
    if (e.kind == obs::EventKind::kMsgRecv) {
      saw_recv = true;
      EXPECT_GE(e.t, t0) << "origin " << e.a << " received "
                         << (t0 - e.t) / 1000 << " us before it was sent";
    }
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_recv);
}

TEST(TcpCluster, FramesAheadOfFinAreParsedBeforeClose) {
  // A peer's last frames can share a read with its FIN. They are valid and
  // must be parsed before the connection is torn down, not dropped.
  std::uint16_t base = 0;
  TcpCluster c(3, core::FdMode::kPerfect, ms(250),
               [&base](TcpNodeOptions& o) {
                 base = o.base_port;
                 o.heartbeat_fd = false;
               });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(base);  // node 0
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Corked, the data stays queued and the FIN rides on its last segment:
  // node 0 finds the frames and the end of stream in the same wake.
  const int one = 1;
  ASSERT_EQ(setsockopt(fd, IPPROTO_TCP, TCP_CORK, &one, sizeof(one)), 0);
  const std::uint32_t hello = 2;
  std::vector<std::uint8_t> bytes(4);
  std::memcpy(bytes.data(), &hello, 4);
  const auto frame = core::encode(core::Message::heartbeat(2));
  for (int k = 0; k < 3; ++k) bytes.insert(bytes.end(), frame.begin(), frame.end());
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(testing::scaled(sec(2)));
  while (c.node(0).net_stats().frames_received < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Wait for the close too: a read that hit EOF must not lose the frames.
  timeval limit{};
  limit.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  char sink;
  EXPECT_EQ(::read(fd, &sink, 1), 0) << "node 0 never closed the link";
  ::close(fd);
  EXPECT_EQ(c.node(0).net_stats().frames_received, 3u);
}

TEST(TcpCluster, InboxStressDeliversEveryRequestOnceInProducerOrder) {
  // Four producers share one node's command inbox, interleaving submits
  // with broadcast_now(). The odd ones pause so the loop drains the inbox
  // between their pushes, exercising the empty -> non-empty wake. Every
  // request must reach every node exactly once, in per-producer order.
  constexpr std::size_t kNodes = 3;
  constexpr std::uint8_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 1000;
  TcpCluster c(kNodes, core::FdMode::kPerfect, ms(250),
               [](TcpNodeOptions& o) { o.heartbeat_fd = false; });
  std::vector<std::thread> producers;
  for (std::uint8_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&c, p] {
      for (std::uint32_t seq = 0; seq < kPerProducer; ++seq) {
        std::vector<std::uint8_t> tag(5);
        tag[0] = p;
        std::memcpy(tag.data() + 1, &seq, 4);
        c.node(0).submit(Request::of_data(std::move(tag)));
        if (seq % 8 == 7) c.node(0).broadcast_now();
        if (p % 2 == 1 && seq % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      c.node(0).broadcast_now();
    });
  }
  for (auto& t : producers) t.join();

  // Requests submitted after the last round opened need one more round.
  const auto node0_requests = [&c](NodeId id) {
    std::size_t n = 0;
    for (const auto& r : c.delivered(id)) {
      for (const auto& d : r.deliveries) {
        if (d.origin != 0) continue;
        const auto batch = core::unpack_batch(d.payload);
        if (batch) n += batch->size();
      }
    }
    return n;
  };
  const std::size_t total = std::size_t{kProducers} * kPerProducer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(testing::scaled(sec(30)));
  for (;;) {
    bool done = true;
    for (NodeId i = 0; i < kNodes && done; ++i) done = node0_requests(i) >= total;
    if (done || std::chrono::steady_clock::now() > deadline) break;
    c.node(0).broadcast_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (NodeId i = 0; i < kNodes; ++i) {
    std::vector<std::uint32_t> next(kProducers, 0);
    for (const auto& r : c.delivered(i)) {
      for (const auto& d : r.deliveries) {
        if (d.origin != 0) continue;
        const auto batch = core::unpack_batch(d.payload);
        ASSERT_TRUE(batch.has_value()) << "node " << i << " round " << r.round;
        for (const auto& req : *batch) {
          ASSERT_EQ(req.data.size(), 5u);
          const std::uint8_t p = req.data[0];
          ASSERT_LT(p, kProducers);
          std::uint32_t seq = 0;
          std::memcpy(&seq, req.data.data() + 1, 4);
          ASSERT_EQ(seq, next[p]) << "node " << i << " producer " << int{p};
          ++next[p];
        }
      }
    }
    for (std::uint8_t p = 0; p < kProducers; ++p) {
      EXPECT_EQ(next[p], kPerProducer) << "node " << i << " producer " << int{p};
    }
  }
}

}  // namespace
}  // namespace allconcur::net
