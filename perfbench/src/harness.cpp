#include "harness.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "serve/sink.hpp"
#include "sim/engine.hpp"
#include "trace/generator.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double exp_mean(const std::vector<double>& logs) {
  if (logs.empty()) return 0.0;
  double sum = 0.0;
  for (double v : logs) sum += v;
  return std::exp(sum / static_cast<double>(logs.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";  // ext2/3/4 share the magic
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    case 0x858458F6: return "ramfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

void Report::gate(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

namespace {

mris::Instance generated(std::size_t jobs, int machines, std::uint64_t seed) {
  mris::trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  return mris::trace::to_instance(
      mris::trace::merge_storage(mris::trace::generate_azure_like(cfg)),
      machines);
}

/// Multiplies processing times so the mean job volume is `mean_volume`.
/// The factor must be >= 1 to keep the p_j >= 1 normalization.
std::vector<mris::Job> with_mean_volume(const mris::Instance& inst,
                                        double mean_volume) {
  const double c = mean_volume * static_cast<double>(inst.num_jobs()) /
                   inst.total_volume();
  if (!(c >= 1.0)) {
    throw std::runtime_error("workload: mean job volume target below the "
                             "generated mean; raise it");
  }
  std::vector<mris::Job> jobs = inst.jobs();
  for (mris::Job& j : jobs) j.processing *= c;
  return jobs;
}

double total_volume(const std::vector<mris::Job>& jobs) {
  double v = 0.0;
  for (const mris::Job& j : jobs) v += j.volume();
  return v;
}

}  // namespace

mris::Instance poisson_instance(std::size_t n, int machines, double load,
                                double mean_volume, std::uint64_t seed) {
  const mris::Instance base = generated(n, machines, seed);
  std::vector<mris::Job> jobs = with_mean_volume(base, mean_volume);
  const double horizon =
      total_volume(jobs) / (static_cast<double>(machines) * load);
  const double mean_gap = horizon / static_cast<double>(jobs.size());
  mris::util::Xoshiro256 rng(seed ^ 0x706f6973736f6eULL);  // "poisson"
  double t = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    t += -mean_gap * std::log1p(-mris::util::uniform01(rng));
    jobs[i].release = t;
    jobs[i].id = static_cast<mris::JobId>(i);
  }
  return mris::Instance(std::move(jobs), machines, base.num_resources());
}

mris::Instance natural_instance(std::size_t n, int machines, double load,
                                double mean_volume, std::uint64_t seed) {
  const mris::Instance base = generated(n, machines, seed);
  std::vector<mris::Job> jobs = with_mean_volume(base, mean_volume);
  const double window =
      total_volume(jobs) / (static_cast<double>(machines) * load);
  const double stretch = window / base.last_release();
  for (mris::Job& j : jobs) j.release *= stretch;
  return mris::Instance(std::move(jobs), machines, base.num_resources());
}

std::uint64_t batch_checksum(const mris::Instance& inst,
                             const mris::exp::SchedulerSpec& spec) {
  mris::serve::PlacementChecksum checksum;
  mris::RunOptions opts;
  opts.on_record = [&checksum](const mris::EventRecord& rec) {
    if (rec.kind == mris::EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
  };
  const auto s = mris::exp::make_scheduler(spec, inst);
  mris::run_online(inst, *s, opts);
  return checksum.value();
}

std::size_t placed_jobs(const mris::Schedule& schedule) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < schedule.num_jobs(); ++i) {
    n += schedule.is_assigned(static_cast<mris::JobId>(i)) ? 1 : 0;
  }
  return n;
}

std::string spec_key(const mris::exp::SchedulerSpec& spec) {
  std::string h = mris::heuristic_name(spec.heuristic);
  std::transform(h.begin(), h.end(), h.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  switch (spec.kind) {
    case mris::exp::SchedulerKind::kMris: return "mris";
    case mris::exp::SchedulerKind::kPq: return "pq-" + h;
    case mris::exp::SchedulerKind::kTetris: return "tetris";
    case mris::exp::SchedulerKind::kBfExec: return "bfexec";
    case mris::exp::SchedulerKind::kCaPq: return "capq-" + h;
    case mris::exp::SchedulerKind::kDrf: return "drf";
    case mris::exp::SchedulerKind::kHybrid: return "hybrid-" + h;
  }
  return "unknown";
}

}  // namespace perfbench
