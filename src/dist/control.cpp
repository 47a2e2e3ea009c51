#include "dist/control.h"

#include "common/fields.h"

namespace softborg::dist {

Bytes encode_hello(const HelloMsg& m) {
  Bytes out;
  put_varint(out, m.shard_index);
  put_varint(out, m.credit_window);
  put_varint(out, m.resumed ? 1 : 0);
  put_varint(out, m.mono_ns);
  put_varint(out, m.real_ns);
  return out;
}

std::optional<HelloMsg> decode_hello(const Bytes& bytes) {
  std::size_t pos = 0;
  HelloMsg m;
  const auto shard = get_varint(bytes, pos);
  const auto window = get_varint(bytes, pos);
  const auto resumed = get_varint(bytes, pos);
  if (!shard || !window || !resumed) return std::nullopt;
  if (*window > 0xffff || *resumed > 1) return std::nullopt;
  m.shard_index = *shard;
  m.credit_window = static_cast<std::uint32_t>(*window);
  m.resumed = *resumed == 1;
  if (pos == bytes.size()) return m;  // pre-tracing 3-field hello
  const auto mono = get_varint(bytes, pos);
  const auto real = get_varint(bytes, pos);
  if (!mono || !real || pos != bytes.size()) return std::nullopt;
  m.mono_ns = *mono;
  m.real_ns = *real;
  return m;
}

Bytes encode_worker_stats(const WorkerStatsMsg& m) {
  // The frame version gates the whole protocol, so there is no per-message
  // versioning to maintain.
  Bytes out;
  encode_fields(out, m);
  return out;
}

std::optional<WorkerStatsMsg> decode_worker_stats(const Bytes& bytes) {
  WorkerStatsMsg m;
  StateReader r(bytes);
  decode_fields(r, m);
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace softborg::dist
