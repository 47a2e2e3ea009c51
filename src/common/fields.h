// Declared fields: one constexpr list per plain stats, ledger or config
// struct, from which every codec, counter publication and fingerprint that
// walks the struct's members is derived (DESIGN.md, "Declared fields").
//
// A struct declares its list as a static member function:
//
//   struct NetStats {
//     std::uint64_t sent = 0;
//     ...
//     static constexpr auto fields() {
//       return std::tuple{field(&NetStats::sent, "net.sent_total"), ...};
//     }
//   };
//
// Each entry names one member in declaration order, which is also the
// encoding order. `field(member, counter)` marks an encoded member; the
// optional counter is the member's registry counter name (or name suffix,
// for structs published under a per-instance prefix), see
// obs::CounterSet. `exempt(member, why)` names a member that no codec or
// fingerprint reads, with the reason.
//
// The guard: kFieldsOf<T> fails the build when the list does not name as
// many entries as T has members (aggregate arity, counted by brace-
// initializing T from convertible placeholders), so a new member cannot be
// left out of the codecs and the fingerprint silently. It counts entries:
// a member listed twice in place of another is not caught.
//
// Encodings: unsigned integers and enums as varints, doubles as their IEEE
// bit pattern (put_f64), bools as 0/1, std::array element by element, and a
// member whose type has its own list through that list.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/state_wire.h"

namespace softborg {

template <typename T, typename M>
struct Field {
  static constexpr bool kEncoded = true;
  M T::*member;
  const char* counter = nullptr;  // registry name (suffix); null: unpublished
};

template <typename T, typename M>
struct ExemptField {
  static constexpr bool kEncoded = false;
  static constexpr const char* counter = nullptr;
  M T::*member;
  const char* why;
};

template <typename T, typename M>
constexpr Field<T, M> field(M T::*member, const char* counter = nullptr) {
  return {member, counter};
}

template <typename T, typename M>
constexpr ExemptField<T, M> exempt(M T::*member, const char* why) {
  return {member, why};
}

namespace fields_detail {

// Converts to any member type; only ever named in unevaluated operands.
struct AnyMember {
  template <typename U>
  operator U() const;
};

// The number of members of aggregate T: the largest N for which
// T{AnyMember × N} is well-formed. Each placeholder converts to its member
// directly, so brace elision never spreads one across a nested aggregate.
template <typename T, typename... A>
constexpr std::size_t aggregate_arity() {
  if constexpr (requires { T{A{}..., AnyMember{}}; }) {
    return aggregate_arity<T, A..., AnyMember>();
  } else {
    return sizeof...(A);
  }
}

template <typename T>
constexpr auto checked_fields() {
  constexpr auto list = T::fields();
  static_assert(std::tuple_size_v<decltype(list)> == aggregate_arity<T>(),
                "the field list must name every member of this struct: add "
                "the new member to T::fields() with field() or exempt()");
  return list;
}

template <typename M>
struct IsStdArray : std::false_type {};
template <typename E, std::size_t N>
struct IsStdArray<std::array<E, N>> : std::true_type {};

}  // namespace fields_detail

template <typename T>
concept HasFields = requires { T::fields(); };

template <typename T>
inline constexpr auto kFieldsOf = fields_detail::checked_fields<T>();

template <typename T>
inline constexpr std::size_t kFieldCount =
    std::tuple_size_v<std::remove_const_t<decltype(kFieldsOf<T>)>>;

// Calls f(entry) for each entry of T's list, in order.
template <typename T, typename F>
constexpr void for_each_field(F&& f) {
  std::apply([&](const auto&... entry) { (f(entry), ...); }, kFieldsOf<T>);
}

// Encoded scalars in one M, counting nested lists and array elements: the
// minimum encoded size of an M in bytes (each scalar takes at least one).
template <typename M>
constexpr std::size_t leaf_count() {
  if constexpr (HasFields<M>) {
    std::size_t n = 0;
    for_each_field<M>([&](const auto& entry) {
      using Entry = std::remove_cvref_t<decltype(entry)>;
      using Member =
          std::remove_cvref_t<decltype(std::declval<M&>().*entry.member)>;
      if constexpr (Entry::kEncoded) n += leaf_count<Member>();
    });
    return n;
  } else if constexpr (fields_detail::IsStdArray<M>::value) {
    return std::tuple_size_v<M> * leaf_count<typename M::value_type>();
  } else {
    return 1;
  }
}

template <typename T>
void encode_fields(Bytes& out, const T& value);
template <typename T>
void decode_fields(StateReader& r, T& value);

namespace fields_detail {

template <typename M>
void put_member(Bytes& out, const M& v) {
  if constexpr (HasFields<M>) {
    encode_fields(out, v);
  } else if constexpr (IsStdArray<M>::value) {
    for (const auto& e : v) put_member(out, e);
  } else if constexpr (std::is_same_v<M, bool>) {
    put_bool(out, v);
  } else if constexpr (std::is_floating_point_v<M>) {
    put_f64(out, v);
  } else if constexpr (std::is_enum_v<M>) {
    put_varint(out, static_cast<std::uint64_t>(v));
  } else {
    static_assert(std::is_unsigned_v<M>,
                  "no encoding for this member type: exempt it");
    put_varint(out, v);
  }
}

template <typename M>
void get_member(StateReader& r, M& v) {
  if constexpr (HasFields<M>) {
    decode_fields(r, v);
  } else if constexpr (IsStdArray<M>::value) {
    for (auto& e : v) get_member(r, e);
  } else if constexpr (std::is_same_v<M, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_floating_point_v<M>) {
    v = r.f64();
  } else {
    static_assert(std::is_unsigned_v<M>,
                  "no decoding for this member type: exempt it");
    v = static_cast<M>(r.u64_max(std::numeric_limits<M>::max()));
  }
}

}  // namespace fields_detail

// Appends every encoded member of `value`, in list order.
template <typename T>
void encode_fields(Bytes& out, const T& value) {
  for_each_field<T>([&](const auto& entry) {
    if constexpr (std::remove_cvref_t<decltype(entry)>::kEncoded) {
      fields_detail::put_member(out, value.*entry.member);
    }
  });
}

// Reads what encode_fields wrote. Exempt members are left as they are; a
// malformed member latches r's failure (check r.ok() once after).
template <typename T>
void decode_fields(StateReader& r, T& value) {
  for_each_field<T>([&](const auto& entry) {
    if constexpr (std::remove_cvref_t<decltype(entry)>::kEncoded) {
      fields_detail::get_member(r, value.*entry.member);
    }
  });
}

}  // namespace softborg
