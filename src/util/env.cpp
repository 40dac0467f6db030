#include "util/env.hpp"

#include <cstdlib>

namespace ibrar::env {

std::string get_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

long get_int(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long out = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? out : fallback;
}

double get_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double out = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? out : fallback;
}

Profile profile() {
  return get_string("IBRAR_PROFILE", "quick") == "paper" ? Profile::kPaper
                                                         : Profile::kQuick;
}

long scaled_int(const char* override_name, long quick, long paper) {
  return get_int(override_name, profile() == Profile::kPaper ? paper : quick);
}

}  // namespace ibrar::env
