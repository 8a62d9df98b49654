#include "smr/command.hpp"

#include "smr/wire.hpp"

namespace allconcur::smr {

using wire::get_u32;
using wire::get_u64;
using wire::put_u32;
using wire::put_u64;

// Envelope layout: [u8 magic][u64 session][u64 seq][command bytes].
std::vector<std::uint8_t> encode_envelope(
    std::uint64_t session, std::uint64_t seq,
    std::span<const std::uint8_t> command) {
  std::vector<std::uint8_t> out;
  out.reserve(17 + command.size());
  out.push_back(kEnvelopeMagic);
  put_u64(out, session);
  put_u64(out, seq);
  out.insert(out.end(), command.begin(), command.end());
  return out;
}

std::optional<Envelope> decode_envelope(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 17 || bytes[0] != kEnvelopeMagic) return std::nullopt;
  Envelope env;
  std::size_t at = 1;
  if (!get_u64(bytes, at, env.session) || !get_u64(bytes, at, env.seq)) {
    return std::nullopt;
  }
  env.command = bytes.subspan(at);
  return env;
}

Command Command::put(Bytes key, Bytes value) {
  Command c;
  c.op = Op::kPut;
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

Command Command::get(Bytes key) {
  Command c;
  c.op = Op::kGet;
  c.key = std::move(key);
  return c;
}

Command Command::del(Bytes key) {
  Command c;
  c.op = Op::kDelete;
  c.key = std::move(key);
  return c;
}

Command Command::cas(Bytes key, Bytes expected, Bytes value) {
  Command c;
  c.op = Op::kCas;
  c.key = std::move(key);
  c.expected = std::move(expected);
  c.value = std::move(value);
  return c;
}

Command Command::cas_absent(Bytes key, Bytes value) {
  Command c;
  c.op = Op::kCas;
  c.key = std::move(key);
  c.value = std::move(value);
  c.expect_absent = true;
  return c;
}

// Command layout:
//   [u8 op][u8 flags][u32 klen][u32 vlen][u32 elen][key][value][expected]
Bytes encode_command(const Command& cmd) {
  Bytes out;
  out.reserve(14 + cmd.key.size() + cmd.value.size() + cmd.expected.size());
  out.push_back(static_cast<std::uint8_t>(cmd.op));
  out.push_back(cmd.expect_absent ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(cmd.key.size()));
  put_u32(out, static_cast<std::uint32_t>(cmd.value.size()));
  put_u32(out, static_cast<std::uint32_t>(cmd.expected.size()));
  out.insert(out.end(), cmd.key.begin(), cmd.key.end());
  out.insert(out.end(), cmd.value.begin(), cmd.value.end());
  out.insert(out.end(), cmd.expected.begin(), cmd.expected.end());
  return out;
}

std::optional<CommandView> decode_command_view(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 14) return std::nullopt;
  const std::uint8_t op = bytes[0];
  if (op < 1 || op > 4) return std::nullopt;
  const std::uint8_t flags = bytes[1];
  if (flags > 1) return std::nullopt;
  std::size_t at = 2;
  std::uint32_t klen = 0, vlen = 0, elen = 0;
  if (!get_u32(bytes, at, klen) || !get_u32(bytes, at, vlen) ||
      !get_u32(bytes, at, elen)) {
    return std::nullopt;
  }
  if (static_cast<std::uint64_t>(klen) + vlen + elen != bytes.size() - at) {
    return std::nullopt;
  }
  CommandView cmd;
  cmd.op = static_cast<Command::Op>(op);
  cmd.expect_absent = flags == 1;
  cmd.key = bytes.subspan(at, klen);
  cmd.value = bytes.subspan(at + klen, vlen);
  cmd.expected = bytes.subspan(at + klen + vlen, elen);
  return cmd;
}

std::optional<Command> decode_command(std::span<const std::uint8_t> bytes) {
  const auto view = decode_command_view(bytes);
  if (!view) return std::nullopt;
  Command cmd;
  cmd.op = view->op;
  cmd.expect_absent = view->expect_absent;
  cmd.key.assign(view->key.begin(), view->key.end());
  cmd.value.assign(view->value.begin(), view->value.end());
  cmd.expected.assign(view->expected.begin(), view->expected.end());
  return cmd;
}

// Response layout: [u8 status][u8 has_value][u32 len][value bytes].
void encode_response_into(Bytes& out, KvResponse::Status status,
                          bool has_value,
                          std::span<const std::uint8_t> value) {
  out.resize(6 + value.size());
  out[0] = static_cast<std::uint8_t>(status);
  out[1] = has_value ? 1 : 0;
  wire::Writer w(out.data() + 2);
  w.blob(value);
}

Bytes encode_response(const KvResponse& r) {
  Bytes out;
  encode_response_into(out, r.status, r.has_value, r.value);
  return out;
}

std::optional<KvResponse> decode_response(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 6) return std::nullopt;
  if (bytes[0] > 3 || bytes[1] > 1) return std::nullopt;
  KvResponse r;
  r.status = static_cast<KvResponse::Status>(bytes[0]);
  r.has_value = bytes[1] == 1;
  std::size_t at = 2;
  if (!wire::get_blob(bytes, at, r.value) || at != bytes.size()) {
    return std::nullopt;
  }
  return r;
}

}  // namespace allconcur::smr
