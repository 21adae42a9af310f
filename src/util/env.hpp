#pragma once
// Single sanctioned doorway to process environment variables.
//
// Every TAF_* knob (TAF_THREADS, the parallel_sweep example's pool size;
// TAF_UPDATE_GOLDEN, which regenerates the Table II golden file) is read
// through these helpers so that a grep for util::env_cstr enumerates the
// complete environment surface of the library. taf-analyze enforces
// this: std::getenv anywhere outside src/util/env.cpp is a finding
// (rule env-through-util).

namespace taf::util {

/// Raw value of an environment variable, or nullptr when unset.
const char* env_cstr(const char* name) noexcept;

/// True when the variable is set to a non-empty value.
bool env_set(const char* name) noexcept;

/// Positive integer value of the variable; `fallback` when unset or not
/// parseable as a positive integer.
int env_positive_int(const char* name, int fallback) noexcept;

}  // namespace taf::util
