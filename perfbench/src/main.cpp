// mris_perfbench: one run of one workload of the repository benchmark
// (perfbench/README.md).  Prints one info line, then, as the last line of
// stdout, the JSON result {correct, attempted, failed, metrics}; exits 1
// when any correctness gate failed.
//
//   mris_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--scale <f>] [--corrupt-expected-checksum]
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "harness.hpp"

namespace {

using perfbench::Report;

// The metric names of BENCHMARK.json, with their units.  Every run prints
// all of one list: a layer a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"jobs_per_s", "jobs/s"},
    {"admit_latency_p50_us", "us"},
    {"admit_latency_p99_us", "us"},
    {"awct", "time"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"slo_miss_frac", "fraction"},
    {"serve.read.calls", "count"},
    {"serve.read.bytes_per_call", "bytes"},
    {"serve.read.blocked_ms", "ms"},
    {"serve.protocol.decode_us_per_frame", "us"},
    {"serve.admission_journal.append_us_p50", "us"},
    {"serve.admission_journal.append_us_p99", "us"},
    {"serve.admission_journal.fsync_ms", "ms"},
    {"serve.drain_ms", "ms"},
    {"serve.sink.events", "count"},
    {"serve.sink.us_per_event", "us"},
    {"serve.sink.bytes", "bytes"},
    {"sim.engine.events", "count"},
    {"sim.engine.self_ms", "ms"},
    {"sim.calendar.fit_calls", "count"},
    {"sim.calendar.fit_ms", "ms"},
    {"sim.calendar.commit_calls", "count"},
    {"sim.calendar.commit_ms", "ms"},
    {"sim.recovery.journal_bytes", "bytes"},
    {"sim.recovery.snapshots", "count"},
    {"sim.recovery.io_retries", "count"},
    {"sim.recovery.fsync_ms", "ms"},
    {"sched.mris.callbacks", "count"},
    {"sched.mris.self_ms", "ms"},
    {"sched.mris.awct", "time"},
    {"sched.pq-wsjf.callbacks", "count"},
    {"sched.pq-wsjf.self_ms", "ms"},
    {"sched.pq-wsjf.awct", "time"},
    {"sched.pq-wsvf.callbacks", "count"},
    {"sched.pq-wsvf.self_ms", "ms"},
    {"sched.pq-wsvf.awct", "time"},
    {"sched.tetris.callbacks", "count"},
    {"sched.tetris.self_ms", "ms"},
    {"sched.tetris.awct", "time"},
    {"sched.bfexec.callbacks", "count"},
    {"sched.bfexec.self_ms", "ms"},
    {"sched.bfexec.awct", "time"},
    {"sched.capq-wsjf.callbacks", "count"},
    {"sched.capq-wsjf.self_ms", "ms"},
    {"sched.capq-wsjf.awct", "time"},
    {"sched.mris.wakeups", "count"},
    {"sched.mris.wakeup_ms_p50", "ms"},
    {"sched.mris.wakeup_ms_max", "ms"},
    {"sched.mris.jk_items_max", "count"},
    {"knapsack.cadp.solves", "count"},
    {"knapsack.cadp.ms_total", "ms"},
    {"knapsack.cadp.ms_max", "ms"},
    {"knapsack.cadp.items_max", "count"},
    {"knapsack.cadp.dp_cells", "cells"},
    {"knapsack.cadp.replay_mismatches", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.backlog_max", "count"},
    {"trace.overhead_frac", "fraction"},
    {"trace.unattributed_frac", "fraction"},
};

int usage() {
  std::fprintf(stderr,
               "usage: mris_perfbench --workload <serve-mris-overload|"
               "serve-pq-paced|batch-lineup> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--scale <f>] "
               "[--corrupt-expected-checksum]\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += mris::bench::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that stops reading must not kill the producer with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--work-dir") args.work_dir = value();
      else if (a == "--scale") args.scale = std::stod(value());
      else if (a == "--corrupt-expected-checksum") args.corrupt_expected_checksum = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0.0) || !(args.scale > 0.0)) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  Report report;
  try {
    if (args.workload == "serve-mris-overload") {
      perfbench::run_serve_mris_overload(args, report);
    } else if (args.workload == "serve-pq-paced") {
      perfbench::run_serve_pq_paced(args, report);
    } else if (args.workload == "batch-lineup") {
      perfbench::run_batch_lineup(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.gate(false, std::string("run aborted: ") + e.what());
  }

  const auto& names = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = report.metrics.find(name);
    double v = it != report.metrics.end() ? it->second.value : 0.0;
    if (!std::isfinite(v)) {
      report.gate(false, std::string("metric ") + name + " is not finite");
      v = 0.0;
    }
    if (it != report.metrics.end() && it->second.unit != unit) {
      report.gate(false, std::string("metric ") + name + " has unit " +
                             it->second.unit + ", expected " + unit);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + buf +
               ", \"unit\": " + json_string(unit) + "}";
  }

  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  std::string info = "{" + mris::bench::provenance_json();
  info += ", \"workload\": " + json_string(args.workload);
  info += ", \"seed\": " + std::to_string(args.seed);
  info += ", \"note\": " +
          json_string("sched.<spec>.self_ms includes the scheduler's direct "
                      "ctx.cluster() reads, which cannot be intercepted");
  for (const auto& [k, v] : report.info) {
    info += ", " + json_string(k) + ": " + json_string(v);
  }
  info += ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) info += ", ";
    info += json_string(report.failures[i]);
  }
  info += "]}";
  std::printf("%s\n", info.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(report.attempted, 1)),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.failed == 0 ? 0 : 1;
}
