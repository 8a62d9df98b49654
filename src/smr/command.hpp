// Wire formats of the SMR layer, layered inside core::Request payloads.
//
// Two independent layers:
//
//   * The session envelope — generic SMR infrastructure. Every replicated
//     command travels as [magic][session][seq][command bytes]; the
//     Replica uses (session, seq) for exactly-once dedup and hands the
//     inner bytes to the mounted StateMachine. The magic byte lets
//     replicas coexist with non-SMR traffic in the same agreed stream
//     (anything that is not an envelope is ignored).
//
//   * The KV command — the KvStore's own format: get/put/delete/cas over
//     binary-safe keys and values, plus the encoded response.
//
// All integers are little-endian. Lengths are u32 (the engine's payload
// limit is 32-bit anyway, see core::Message::kMaxPayloadBytes).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace allconcur::smr {

// ---------------------------------------------------------------------------
// Session envelope
// ---------------------------------------------------------------------------

/// First byte of every SMR envelope; chosen to be an invalid
/// core::Request::Kind so stray decoding attempts fail fast.
inline constexpr std::uint8_t kEnvelopeMagic = 0xC5;

struct Envelope {
  std::uint64_t session = 0;  ///< client session id (unique per client)
  std::uint64_t seq = 0;      ///< per-session command number, 1-based
  /// The state-machine command; a view into the decoded buffer.
  std::span<const std::uint8_t> command;
};

std::vector<std::uint8_t> encode_envelope(
    std::uint64_t session, std::uint64_t seq,
    std::span<const std::uint8_t> command);

/// nullopt unless `bytes` is a well-formed envelope. The returned command
/// span aliases `bytes`.
std::optional<Envelope> decode_envelope(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// KV commands
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

/// Convenience for string-literal keys/values (keys remain binary-safe;
/// this is just sugar for tests, examples and the CLI).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string_view to_view(const Bytes& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

struct Command {
  enum class Op : std::uint8_t {
    kPut = 1,     ///< key := value
    kGet = 2,     ///< linearizable read through the agreed stream
    kDelete = 3,  ///< erase key
    kCas = 4,     ///< compare-and-swap: see expect_absent below
  };
  Op op = Op::kGet;
  Bytes key;
  Bytes value;     ///< put/cas: the new value
  Bytes expected;  ///< cas only: required current value
  /// cas only: succeed iff the key is absent (create-if-missing); when
  /// set, `expected` is ignored.
  bool expect_absent = false;

  static Command put(Bytes key, Bytes value);
  static Command get(Bytes key);
  static Command del(Bytes key);
  static Command cas(Bytes key, Bytes expected, Bytes value);
  static Command cas_absent(Bytes key, Bytes value);
};

/// A decoded command whose key, value and expected bytes are views into
/// the bytes it was decoded from: what a replica applies, so an agreed
/// command is never copied to be executed.
struct CommandView {
  Command::Op op = Command::Op::kGet;
  std::span<const std::uint8_t> key;
  std::span<const std::uint8_t> value;
  std::span<const std::uint8_t> expected;
  bool expect_absent = false;
};

Bytes encode_command(const Command& cmd);
/// nullopt unless `bytes` is a well-formed command. The spans alias `bytes`.
std::optional<CommandView> decode_command_view(
    std::span<const std::uint8_t> bytes);
/// decode_command_view with owned copies of the fields (clients, tests).
std::optional<Command> decode_command(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// KV responses
// ---------------------------------------------------------------------------

struct KvResponse {
  enum class Status : std::uint8_t {
    kOk = 0,
    kNotFound = 1,    ///< get/delete on a missing key
    kCasFailed = 2,   ///< current value (returned in `value`) mismatched
    kBadCommand = 3,  ///< undecodable command bytes (deterministic error)
  };
  Status status = Status::kOk;
  /// get: the read value; failed cas: the actual current value.
  Bytes value;
  bool has_value = false;

  bool ok() const { return status == Status::kOk; }
};

Bytes encode_response(const KvResponse& r);
/// Writes the encoding of a response into `out`, replacing its contents
/// and reusing its capacity: a replica encodes straight into the session's
/// cached-response buffer.
void encode_response_into(Bytes& out, KvResponse::Status status,
                          bool has_value, std::span<const std::uint8_t> value);
std::optional<KvResponse> decode_response(std::span<const std::uint8_t> bytes);

}  // namespace allconcur::smr
