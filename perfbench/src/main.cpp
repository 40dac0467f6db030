// perfbench: the repository benchmark. One run measures one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Every run first runs the self-tests of the benchmark's pure parts. The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, where metrics are the end-to-end set with --trace 0
// and the per-layer set with --trace 1. The exit code is nonzero when a
// self-test or a correctness gate fails. README.md beside this directory
// describes the workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb",
                                 "user_cpu_ms_per_item"};

/// The per-layer metrics of a traced run, in BENCHMARK.json order. A layer a
/// workload does not use reads 0.
const Metric kPerLayer[] = {
    {"net.extra_ms.p50", 0, "ms"},
    {"net.connect_ms.p50", 0, "ms"},
    {"net.open_fds_delta", 0, "count"},
    {"serve.queue_wait_ms.p50", 0, "ms"},
    {"serve.deadline_frac", 0, "fraction"},
    {"serve.compute_ms.p50", 0, "ms"},
    {"serve.batch_rows.mean", 0, "rows"},
    {"serve.busy_frac", 0, "fraction"},
    {"serve.cache.hit_frac", 0, "fraction"},
    {"serve.cache.evictions", 0, "count"},
    {"serve.telemetry.capture_ms", 0, "ms"},
    {"serve.telemetry.rescore_ms", 0, "ms"},
    {"models.forward_ms.b1", 0, "ms"},
    {"models.forward_ms.b8", 0, "ms"},
    {"tensor.conv_eval.pack_b_ms", 0, "ms"},
    {"tensor.conv_eval.kernel_ms", 0, "ms"},
    {"tensor.conv_eval.epilogue_ms", 0, "ms"},
    {"tensor.maxpool2d_eval_ms", 0, "ms"},
    {"tensor.gemm_packed_ms", 0, "ms"},
    {"runtime.dispatch_calls", 0, "count"},
    {"data.next_ms", 0, "ms"},
    {"attacks.inner_perturb_ms", 0, "ms"},
    {"autograd.forward_ms", 0, "ms"},
    {"mi.loss_ms", 0, "ms"},
    {"autograd.backward_ms", 0, "ms"},
    {"train.optimizer_ms", 0, "ms"},
    {"train.acc_forward_ms", 0, "ms"},
    {"core.mask_refresh_ms", 0, "ms"},
    {"tensor.conv2d_ms", 0, "ms"},
    {"tensor.im2col_ms", 0, "ms"},
    {"tensor.matmul_nt_sym_ms", 0, "ms"},
    {"attacks.eval_step_ms", 0, "ms"},
    {"attacks.eval_predict_ms", 0, "ms"},
    {"loadgen.late_p50_ms", 0, "ms"},
    {"loadgen.late_p99_ms", 0, "ms"},
    {"trace.overhead.cpu_frac", 0, "fraction"},
    {"trace.overhead.lat_p50_frac", 0, "fraction"},
    {"trace.selftime_gap_frac", 0, "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-vgg16-open|serve-mlp-churn|train-ibrar-pgdat --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-5s %-32s %16.6f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Orders `got` as `names` lists them; a name the workload did not report
/// is a programming error in the benchmark.
std::vector<Metric> end_to_end_in_order(const std::vector<Metric>& got,
                                        Result& r) {
  std::vector<Metric> out;
  for (const char* name : kEndToEnd) {
    bool found = false;
    for (const auto& m : got) {
      if (m.name == name) {
        out.push_back(m);
        found = true;
      }
    }
    if (!found) r.fail(std::string("end-to-end metric missing: ") + name);
  }
  return out;
}

std::vector<Metric> per_layer_in_order(const std::vector<Metric>& got,
                                       Result& r) {
  std::map<std::string, Metric> by_name;
  for (const auto& m : got) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const auto& m : kPerLayer) {
    auto it = by_name.find(m.name);
    out.push_back(it != by_name.end() ? it->second : m);
    if (it != by_name.end()) by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) {
    r.fail("per-layer metric not in the catalog: " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        trace_out = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.workload.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(args.seconds >= 1.0 && args.seconds <= 60.0)) {
    usage("--seconds must be in [1, 60]");
  }

  const int selftest_failures = run_selftests();
  if (selftest_failures > 0) {
    std::fprintf(stderr, "perfbench: %d self-test checks failed\n",
                 selftest_failures);
    return 1;
  }

  Tracer tracer(args.trace);
  Result r;
  try {
    if (args.workload == "serve-vgg16-open") {
      r = run_serve_vgg16_open(args, tracer);
    } else if (args.workload == "serve-mlp-churn") {
      r = run_serve_mlp_churn(args, tracer);
    } else if (args.workload == "train-ibrar-pgdat") {
      r = run_train_ibrar_pgdat(args, tracer);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const double gap = tracer.selftime_gap();
    r.per_layer.push_back({"trace.selftime_gap_frac", gap, "fraction"});
    if (gap > kSelfTimeTolerance) {
      r.fail("span self-times differ from the traced wall time by " +
             json_number(gap) + " (tolerance " +
             json_number(kSelfTimeTolerance) + ")");
    }
    metrics = per_layer_in_order(r.per_layer, r);
    if (!trace_out.empty() && !tracer.write_chrome_trace(trace_out)) {
      r.fail("cannot write the span trace to " + trace_out);
    }
  } else {
    metrics = end_to_end_in_order(r.end_to_end, r);
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  print_metrics("e2e", r.end_to_end);
  print_metrics("info", r.info);
  if (args.trace) print_metrics("layer", metrics);
  for (const auto& why : r.gate_failures) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }
  const bool correct =
      r.gate_failures.empty() && r.failed == 0 && r.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
