#pragma once
// Structured result records for the paper benches and the tools.
//
// Callers append BenchRecord rows and write one JSON document per run to
// the path they name (each defaults its own, overridable with
// IBRAR_BENCH_OUT). The schema is flat on purpose — one record per (kernel,
// shape, threads) — so runs diff with nothing fancier than
// python -m json.tool:
//
//   {"schema": "ibrar-bench-v1", "records": [
//     {"kernel": "fig2/pgd", "shape": "steps=10", "ns_per_op": ...,
//      "threads": 1, "checksum": ...},
//     ...]}
//
// `checksum` carries each record's headline number, printed with %.9g so
// numeric drift shows up as a JSON diff.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ibrar::bench {

struct BenchRecord {
  std::string kernel;
  std::string shape;  ///< the sweep point, e.g. "steps=10"
  double ns_per_op = 0.0;
  std::int64_t threads = 1;
  double checksum = 0.0;
};

class JsonReporter {
 public:
  /// Writes to `path` exactly as given.
  explicit JsonReporter(std::string path) : path_(std::move(path)) {}

  void add(BenchRecord rec) { records_.push_back(std::move(rec)); }

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Write the document; throws std::runtime_error on I/O failure.
  void write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("JsonReporter: cannot open " + path_);
    }
    std::fprintf(f, "{\"schema\": \"ibrar-bench-v1\", \"records\": [");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(
          f,
          "%s\n  {\"kernel\": \"%s\", \"shape\": \"%s\", \"ns_per_op\": %s, "
          "\"threads\": %lld, \"checksum\": %s}",
          i == 0 ? "" : ",", escape(r.kernel).c_str(), escape(r.shape).c_str(),
          num(r.ns_per_op, "%.1f").c_str(), static_cast<long long>(r.threads),
          num(r.checksum, "%.9g").c_str());
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) {
      throw std::runtime_error("JsonReporter: write failed for " + path_);
    }
    std::fprintf(stderr, "[bench] wrote %zu records to %s\n", records_.size(),
                 path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  /// JSON number, or null for non-finite values (a NaN checksum is exactly
  /// the regression this file exists to record — it must stay parseable).
  static std::string num(double v, const char* fmt) {
    if (!std::isfinite(v)) return "null";
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
    }
    return out;
  }

  std::string path_;
  std::vector<BenchRecord> records_;
};

}  // namespace ibrar::bench
