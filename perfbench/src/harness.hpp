// Shared pieces of the repository benchmark (perfbench/README.md): the
// wall clock, summary statistics, the metric report, the seeded workload
// builders and the correctness gates every workload applies.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "exp/schedulers.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// exp of the mean of `logs`: the geometric mean of the logged values
/// (0 when there are none).
double exp_mean(const std::vector<double>& logs);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// Name of the filesystem holding `path` ("ext4", "tmpfs", ...).
std::string filesystem_type(const std::string& path);

/// Command-line settings of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every job count; the self-test runs tiny sizes with it.
  double scale = 1.0;
  /// Flips one bit of every expected checksum, so that the gates must
  /// fail; the self-test uses it to prove the gates are live.
  bool corrupt_expected_checksum = false;
  /// Working directory of the run (sink files, state dir, span dump).
  std::string work_dir;
};

/// Metrics and gate outcomes of one run, printed as the final JSON line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  ///< printed on its own line
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one gated operation; a false `ok` records `what` as a failure.
  void gate(bool ok, const std::string& what);
};

/// Azure-like jobs merged to R = 4 resources on `machines` machines, with
/// the time unit chosen so that the mean job volume is `mean_volume`
/// (processing times are multiplied by a factor >= 1, so p_j >= 1 still
/// holds) and releases rewritten as a Poisson process whose horizon is
/// total volume / (machines * load), the daemon_latency bench's notion of
/// load.  Jobs come out in canonical streamed form: release order, id = seq.
mris::Instance poisson_instance(std::size_t jobs, int machines, double load,
                                double mean_volume, std::uint64_t seed);

/// The generator's natural diurnal release shape, stretched to the window
/// that gives `load`, with the same mean-volume time unit as above.
mris::Instance natural_instance(std::size_t jobs, int machines, double load,
                                double mean_volume, std::uint64_t seed);

/// Placement checksum of a batch run_online() of `inst` under `spec`.
std::uint64_t batch_checksum(const mris::Instance& inst,
                             const mris::exp::SchedulerSpec& spec);

/// Jobs the schedule places.
std::size_t placed_jobs(const mris::Schedule& schedule);

/// Short spec name used in metric names ("mris", "pq-wsjf", ...).
std::string spec_key(const mris::exp::SchedulerSpec& spec);

void run_serve_mris_overload(const Args& args, Report& report);
void run_serve_pq_paced(const Args& args, Report& report);
void run_batch_lineup(const Args& args, Report& report);

}  // namespace perfbench
