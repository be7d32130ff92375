// The paper-reproduction workload: the Figure 3 comparison lineup run
// through the engine in batch, as every figure bench does (perfbench/
// README.md).
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/metrics.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "passes.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

/// One scheduler run: exp::evaluate()'s fault-free composition (default
/// RunOptions, make_scheduler, run_online, validate_schedule, metrics),
/// spelled out so the scheduler can be wrapped in the probes — evaluate()
/// builds its scheduler internally.
struct LineupRun {
  double awct = 0.0;
  std::size_t placed = 0;
  std::size_t events = 0;
  double run_online_s = 0.0;
  bool ok = false;
  std::string error;
};

LineupRun run_one(const mris::Instance& inst,
                  const mris::exp::SchedulerSpec& spec, Tracer* tracer,
                  std::vector<Clock::time_point>* arrivals,
                  std::vector<Clock::time_point>* decisions,
                  std::vector<WakeupCapture>* wakeups) {
  LineupRun r;
  try {
    ProbeScheduler probe(mris::exp::make_scheduler(spec, inst), tracer,
                         spec_key(spec), arrivals, decisions, wakeups);
    const auto t0 = Clock::now();
    const mris::RunResult run = mris::run_online(inst, probe, {});
    r.run_online_s = seconds_between(t0, Clock::now());
    r.events = run.num_events;
    const mris::ValidationResult valid =
        mris::validate_schedule(inst, run.schedule);
    if (!valid) {
      r.error = "invalid schedule from " + spec.display_name() + ": " +
                valid.message;
      return r;
    }
    r.awct = mris::average_weighted_completion_time(inst, run.schedule);
    r.placed = placed_jobs(run.schedule);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = spec.display_name() + " threw: " + e.what();
  }
  return r;
}

}  // namespace

void run_batch_lineup(const Args& args, Report& report) {
  // Figure 3's top point: N = 8000 Azure-like jobs on M = 4 machines with
  // the generator's diurnal 12.5-day release shape.  The window is
  // stretched so the offered load is the generator's median natural load
  // at this point (39.0 over seeds 1..41), and the time unit fixed by the
  // mean job volume, so seeds differ in job mix, not in load.
  constexpr int kMachines = 4;
  constexpr double kLoad = 39.0;
  constexpr double kMeanVolume = 2048.0;
  constexpr double kSloUs = 10'000.0;
  const std::size_t instances = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds / 3.3)));
  const std::size_t n = std::max<std::size_t>(
      64, static_cast<std::size_t>(std::llround(8000 * args.scale)));
  const std::vector<mris::exp::SchedulerSpec> lineup =
      mris::exp::comparison_lineup();

  std::vector<mris::Instance> insts;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::vector<mris::Instance> built;
    for (std::size_t i = 0; i < instances; ++i) {
      built.push_back(natural_instance(n, kMachines, kLoad, kMeanVolume,
                                       args.seed * 1000 + i));
    }
    setups.push_back(seconds_between(t0, Clock::now()));
    insts = std::move(built);
  }
  report.set("setup_s", median(setups), "s");

  // Closed loop: the engine admits a job by delivering its arrival; each
  // admission was due when the previous one's on_arrival returned.  The
  // SLO counts scheduler decisions (every callback) the same way: the
  // largest stalls here, MRIS's drain wakeups and CA-PQ's final batch,
  // come after the last arrival, where no admission waits for them.
  // Latencies are kept per scheduler: pooled, the six schedulers' very
  // different callback costs would put the median on the boundary between
  // two modes.
  std::vector<std::vector<double>> latency(lineup.size());
  std::size_t decisions = 0;
  std::vector<std::size_t> spec_misses(lineup.size(), 0);
  std::vector<std::vector<double>> awct(lineup.size());
  std::size_t misses = 0, attempted = 0;
  std::vector<double> throughput;  // per instance: the whole lineup
  const auto t0 = Clock::now();
  for (const mris::Instance& inst : insts) {
    std::size_t placed = 0;
    const auto lineup_start = Clock::now();
    for (std::size_t s = 0; s < lineup.size(); ++s) {
      std::vector<Clock::time_point> arrivals, decided;
      arrivals.reserve(inst.num_jobs());
      decided.reserve(4 * inst.num_jobs());
      const Clock::time_point start = Clock::now();
      const LineupRun r =
          run_one(inst, lineup[s], nullptr, &arrivals, &decided, nullptr);
      report.gate(r.ok, r.error);
      attempted += inst.num_jobs();
      misses += inst.num_jobs() - arrivals.size();
      Clock::time_point due = start;
      for (const Clock::time_point& a : arrivals) {
        latency[s].push_back(
            std::chrono::duration<double, std::micro>(a - due).count());
        due = a;
      }
      due = start;
      for (const Clock::time_point& d : decided) {
        if (std::chrono::duration<double, std::micro>(d - due).count() > kSloUs) {
          ++misses;
          ++spec_misses[s];
        }
        due = d;
      }
      decisions += decided.size();
      if (r.ok) {
        placed += r.placed;
        awct[s].push_back(r.awct);
      }
    }
    throughput.push_back(static_cast<double>(placed) /
                         seconds_between(lineup_start, Clock::now()));
  }
  const double wall = seconds_between(t0, Clock::now());
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("jobs_per_s", median(throughput), "jobs/s");
  // Each percentile is the geometric mean over the lineup, like awct.
  std::vector<double> log_p50, log_p99;
  std::size_t samples = 0;
  std::string per_spec;
  for (std::size_t s = 0; s < lineup.size(); ++s) {
    samples += latency[s].size();
    log_p50.push_back(std::log(quantile(latency[s], 0.5)));
    log_p99.push_back(std::log(quantile(latency[s], 0.99)));
    if (s > 0) per_spec += ' ';
    per_spec += spec_key(lineup[s]) + "=" + std::to_string(spec_misses[s]);
  }
  report.set("admit_latency_p50_us", exp_mean(log_p50), "us");
  report.set("admit_latency_p99_us", exp_mean(log_p99), "us");
  report.info["admit_latency_samples"] = std::to_string(samples);
  report.info["slo_misses_by_scheduler"] = per_spec;
  report.info["slo_decisions"] = std::to_string(decisions);
  report.set("slo_miss_frac",
             static_cast<double>(misses) /
                 static_cast<double>(std::max(decisions, attempted)),
             "fraction");
  std::vector<double> all_logs;
  std::vector<double> spec_awct(lineup.size(), 0.0);
  for (std::size_t s = 0; s < lineup.size(); ++s) {
    std::vector<double> logs;
    for (double v : awct[s]) logs.push_back(std::log(v));
    spec_awct[s] = exp_mean(logs);
    all_logs.insert(all_logs.end(), logs.begin(), logs.end());
  }
  report.set("awct", exp_mean(all_logs), "time");
  if (!args.trace) return;

  // Traced run: the same runs under the probes.
  Tracer tracer;
  std::vector<WakeupCapture> wakeups;
  double run_online_s = 0.0, events = 0.0;
  const auto t1 = Clock::now();
  for (const mris::Instance& inst : insts) {
    for (std::size_t s = 0; s < lineup.size(); ++s) {
      const bool mris = lineup[s].kind == mris::exp::SchedulerKind::kMris;
      const LineupRun r = run_one(inst, lineup[s], &tracer, nullptr, nullptr,
                                  mris ? &wakeups : nullptr);
      report.gate(r.ok, "traced " + r.error);
      report.gate(!r.ok || std::find(awct[s].begin(), awct[s].end(), r.awct) !=
                               awct[s].end(),
                  "traced " + lineup[s].display_name() +
                      " run changed its schedule");
      run_online_s += r.run_online_s;
      events += static_cast<double>(r.events);
    }
  }
  const double traced_s = seconds_between(t1, Clock::now());
  const std::filesystem::path dir(args.work_dir);
  tracer.write_spans((dir / "spans.json").string());

  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  for (std::size_t s = 0; s < lineup.size(); ++s) {
    const std::string key = spec_key(lineup[s]);
    const Tracer::SchedTotals& totals = tracer.sched(key);
    report.set("sched." + key + ".callbacks",
               static_cast<double>(totals.callbacks), "count");
    report.set("sched." + key + ".self_ms", ms(totals.self_ns), "ms");
    report.set("sched." + key + ".awct", spec_awct[s], "time");
  }
  report.set("sim.calendar.fit_calls",
             static_cast<double>(tracer.calls(Layer::kFit)), "count");
  report.set("sim.calendar.fit_ms", ms(tracer.self_ns(Layer::kFit)), "ms");
  report.set("sim.calendar.commit_calls",
             static_cast<double>(tracer.calls(Layer::kCommit)), "count");
  report.set("sim.calendar.commit_ms", ms(tracer.self_ns(Layer::kCommit)),
             "ms");
  const double probed_ms = ms(tracer.self_ns(Layer::kSched)) +
                           ms(tracer.self_ns(Layer::kFit)) +
                           ms(tracer.self_ns(Layer::kCommit));
  const double engine_ms = run_online_s * 1e3 - probed_ms;
  report.set("sim.engine.self_ms", engine_ms, "ms");
  report.set("sim.engine.events", events, "count");

  if (!wakeups.empty()) {
    replay_wakeups(wakeups, lineup.front().mris.eps, report);
  }

  // No stream in this workload: the serve passes measure the same jobs
  // encoded as a stream, for reference.
  std::vector<std::string> wire;
  for (const mris::Instance& inst : insts) {
    wire.push_back(mris::serve::encode_stream(
        inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
  }
  std::uint64_t frames = 0;
  report.set("serve.protocol.decode_us_per_frame",
             decode_us_per_frame(wire, 4, frames), "us");
  const JournalCost journal = journal_append_cost(insts.front(), dir);
  report.set("serve.admission_journal.append_us_p50", journal.p50_us, "us");
  report.set("serve.admission_journal.append_us_p99", journal.p99_us, "us");
  report.info["serve.storage"] = journal.storage;

  report.set("trace.overhead_frac", traced_s / wall - 1.0, "fraction");
  report.set("trace.unattributed_frac",
             1.0 - (probed_ms + engine_ms) / (traced_s * 1e3), "fraction");
}

}  // namespace perfbench
