#pragma once
// Environment-variable configuration with typed defaults, plus the experiment
// profile switch shared by all benches.
//
// The default "quick" profile shrinks dataset sizes / epochs / attack steps so
// every bench finishes in seconds-to-minutes on one CPU core; the "paper"
// profile scales everything up for a closer (slower) reproduction. Individual
// knobs can still be overridden one by one (e.g. IBRAR_EPOCHS=20).

#include <string>

namespace ibrar::env {

/// String env var with fallback.
std::string get_string(const char* name, const std::string& fallback);

/// Integer env var with fallback (fallback on parse failure too).
long get_int(const char* name, long fallback);

/// Double env var with fallback.
double get_double(const char* name, double fallback);

/// Experiment scale profile, from IBRAR_PROFILE (quick | paper).
enum class Profile { kQuick, kPaper };

Profile profile();

/// Convenience: pick a value by profile, then apply an env override.
long scaled_int(const char* override_name, long quick, long paper);

}  // namespace ibrar::env
