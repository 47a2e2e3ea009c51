// Bounds-checked codec for durable component state (src/store snapshots).
//
// Every mutable component (Rng consumers, SimNet, Pod, Hive, YieldLedger)
// serializes itself with these helpers so the snapshot loader has one
// hardened decoding discipline: a StateReader never reads past the buffer,
// never allocates more than the buffer could possibly describe, and latches
// the first failure — after any malformed field, every subsequent read
// returns zero values and ok() stays false. Callers check ok() once at the
// end instead of after every field, and a torn or bit-flipped snapshot
// degrades to a clean load failure, never UB (ISSUE 7 validation policy).
//
// Doubles are serialized as their IEEE-754 bit patterns: snapshot restore
// must reproduce runs bit-for-bit, so "close enough" text round-trips are
// not acceptable.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/varint.h"

namespace softborg {

inline void put_f64(Bytes& out, double v) {
  put_varint(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_bool(Bytes& out, bool v) { put_varint(out, v ? 1 : 0); }

inline void put_blob(Bytes& out, const Bytes& b) {
  put_varint(out, b.size());
  out.insert(out.end(), b.begin(), b.end());
}

inline void put_str(Bytes& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

class StateReader {
 public:
  explicit StateReader(const Bytes& buf, std::size_t pos = 0)
      : buf_(&buf), pos_(pos) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const {
    return pos_ <= buf_->size() ? buf_->size() - pos_ : 0;
  }
  // True when decoding succeeded AND consumed the whole buffer — the
  // strict-validation contract for top-level payloads (trailing garbage is
  // corruption, not slack).
  bool done() const { return ok_ && pos_ == buf_->size(); }
  void fail() { ok_ = false; }

  std::uint64_t u64() {
    if (!ok_) return 0;
    auto v = get_varint(*buf_, pos_);
    if (!v) {
      ok_ = false;
      return 0;
    }
    return *v;
  }

  std::int64_t i64() {
    if (!ok_) return 0;
    auto v = get_varint_signed(*buf_, pos_);
    if (!v) {
      ok_ = false;
      return 0;
    }
    return *v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() {
    const std::uint64_t v = u64();
    if (v > 1) ok_ = false;
    return ok_ && v == 1;
  }

  // u64 capped at `max` (inclusive); enum tags and small counts.
  std::uint64_t u64_max(std::uint64_t max) {
    const std::uint64_t v = u64();
    if (v > max) ok_ = false;
    return ok_ ? v : 0;
  }

  std::uint32_t u32() {
    return static_cast<std::uint32_t>(u64_max(0xffffffffULL));
  }

  // Element count for a sequence whose elements occupy at least
  // `min_element_bytes` each. Bounding by the remaining buffer kills the
  // bit-flipped-length attack (a huge count would otherwise drive a huge
  // reserve() before the first element read fails).
  std::uint64_t count(std::uint64_t min_element_bytes = 1) {
    const std::uint64_t n = u64();
    if (!ok_) return 0;
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (n > remaining() / min_element_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool blob(Bytes& out) {
    const std::uint64_t n = count();
    if (!ok_) return false;
    out.assign(buf_->begin() + static_cast<std::ptrdiff_t>(pos_),
               buf_->begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

  bool str(std::string& out) {
    const std::uint64_t n = count();
    if (!ok_) return false;
    out.assign(reinterpret_cast<const char*>(buf_->data()) + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const Bytes* buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace softborg
