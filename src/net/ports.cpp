#include "net/ports.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace allconcur::net {
namespace {

// Lowest port drawn: clear of the well-known and commonly configured
// service ports below it.
constexpr unsigned kLowestPort = 10000;

/// First port of the kernel's ephemeral range; Linux's default when the
/// setting cannot be read.
unsigned first_ephemeral_port() {
  unsigned lo = 32768, hi = 0;
  if (std::FILE* f = std::fopen("/proc/sys/net/ipv4/ip_local_port_range", "r")) {
    if (std::fscanf(f, "%u %u", &lo, &hi) != 2) lo = 32768;
    std::fclose(f);
  }
  return lo;
}

/// Binds [base, base + count) on loopback, releasing them again; true if
/// every bind succeeded.
bool block_is_free(unsigned base, std::size_t count) {
  std::vector<int> fds;
  bool ok = true;
  for (std::size_t i = 0; i < count && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    // Same option the listeners set, so the probe sees what they will.
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  for (const int fd : fds) ::close(fd);
  return ok;
}

}  // namespace

std::uint16_t pick_free_port_base(std::size_t count, std::uint64_t salt) {
  // Below the ephemeral range; anywhere (still probed) if it leaves no
  // room there.
  unsigned hi = first_ephemeral_port();
  if (hi < kLowestPort + 1000 + count) hi = 65536;
  Rng rng(static_cast<std::uint64_t>(::getpid()) * 2654435761u + salt +
          static_cast<std::uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
  for (int attempt = 0; attempt < 100; ++attempt) {
    const auto base = static_cast<unsigned>(
        kLowestPort + rng.next_below(hi - kLowestPort - count));
    if (block_is_free(base, count)) return static_cast<std::uint16_t>(base);
  }
  ALLCONCUR_ASSERT(false, "no free localhost port block found");
  return 0;
}

}  // namespace allconcur::net
