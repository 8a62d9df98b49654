// Localhost port blocks for in-process TCP clusters (tests, benches,
// examples, tools): node i listens on base + i, so a cluster needs a run
// of consecutive free ports.
#pragma once

#include <cstddef>
#include <cstdint>

namespace allconcur::net {

/// A base port b such that [b, b + count) could all be bound on loopback
/// when this returns. Drawn below the kernel's ephemeral port range —
/// outgoing connections of other processes take their local ports from
/// that range, so a block inside it can be stolen between draw and bind —
/// and probed by binding every port of the block before it is handed out.
/// The draw mixes pid, wall clock and `salt`, so concurrent processes
/// (parallel ctest) spread out.
std::uint16_t pick_free_port_base(std::size_t count, std::uint64_t salt = 0);

}  // namespace allconcur::net
