#pragma once
// Declarative per-thread work counters. A layer lists its counters once,
// as an X-macro of X(name, doc) entries, and TAF_COUNTER_MEMBERS expands
// that list into the layer's counter struct: one zero-initialized
// std::uint64_t field per entry, in list order, plus a member-wise
// operator- for before/after snapshot deltas.

#include <cstdint>

#define TAF_COUNTER_FIELD(name, doc) std::uint64_t name = 0;
#define TAF_COUNTER_DIFF(name, doc) d.name = this->name - rhs.name;

/// Body of `struct Type { TAF_COUNTER_MEMBERS(Type, LIST) };`.
#define TAF_COUNTER_MEMBERS(Type, LIST)   \
  LIST(TAF_COUNTER_FIELD)                 \
  Type operator-(const Type& rhs) const { \
    Type d;                               \
    LIST(TAF_COUNTER_DIFF)                \
    return d;                             \
  }
