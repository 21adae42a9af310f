#include "util/env.hpp"

#include <cstdlib>

namespace taf::util {

const char* env_cstr(const char* name) noexcept {
  // The one allowed std::getenv call site (taf-analyze rule env-through-util).
  return std::getenv(name);
}

bool env_set(const char* name) noexcept {
  const char* v = env_cstr(name);
  return v != nullptr && *v != '\0';
}

int env_positive_int(const char* name, int fallback) noexcept {
  const char* v = env_cstr(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || n <= 0 || n > 1'000'000) return fallback;
  return static_cast<int>(n);
}

}  // namespace taf::util
