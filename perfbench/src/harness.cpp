#include "harness.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include <sys/resource.h>

namespace perfbench {

std::vector<double> Tracer::span_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const auto& s : log.spans) {
      if (s.name == name) out.push_back(ms(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::selftime_gap() const {
  std::vector<const std::vector<Span>*> all;
  for (const auto& log : logs_) all.push_back(&log.spans);
  return perfbench::selftime_gap(all);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    for (const auto& s : logs_[t].spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"thread\":\"%s\","
                   "\"parent\":%lld,\"id\":%llu}}",
                   first ? "" : ",", s.name.c_str(), t,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   logs_[t].thread.c_str(), static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.id));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ProcReading read_proc() {
  ProcReading r;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++r.fds;
  }
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream in(line);
    std::string key;
    double value = 0.0;
    in >> key >> value;
    if (key == "Threads:") r.threads = static_cast<std::int64_t>(value);
    if (key == "VmHWM:") r.hwm_mb = value / 1024.0;  // kB
  }
  return r;
}

namespace {

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

double process_user_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return seconds(u.ru_utime);
}

/// Steal and total jiffies of the machine: the first line of /proc/stat
/// is "cpu user nice system idle iowait irq softirq steal ...".
std::pair<double, double> steal_and_total() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

}  // namespace

CpuMeter::CpuMeter() : cpu0_(process_cpu_s()), user0_(process_user_s()) {
  std::tie(steal0_, total0_) = steal_and_total();
}

double CpuMeter::cpu_s() const { return process_cpu_s() - cpu0_; }

double CpuMeter::user_s() const { return process_user_s() - user0_; }

double site_ms(const std::vector<ibrar::obs::ProfileEntry>& table,
               const char* name, double per) {
  for (const auto& e : table) {
    if (e.name == name) return static_cast<double>(e.total_ns) / 1e6 / per;
  }
  return 0.0;
}

double site_calls(const std::vector<ibrar::obs::ProfileEntry>& table,
                  const char* name, double per) {
  for (const auto& e : table) {
    if (e.name == name) return static_cast<double>(e.calls) / per;
  }
  return 0.0;
}

double CpuMeter::steal_frac() const {
  const auto [steal, total] = steal_and_total();
  return total > total0_ ? (steal - steal0_) / (total - total0_) : 0.0;
}

}  // namespace perfbench
