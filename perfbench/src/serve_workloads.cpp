// The two daemon workloads: serve-mris-overload (closed loop over an
// in-memory stream) and serve-pq-paced (open loop over a real pipe with a
// durable state dir).  See perfbench/README.md for why each exists.
#include <ext/stdio_filebuf.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/metrics.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "passes.hpp"
#include "serve/admission_journal.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mris::Instance;
namespace serve = mris::serve;

constexpr int kMachines = 8;
constexpr double kSloUs = 10'000.0;  // the fixed 10 ms admission limit

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One sub-stream of a serve workload: its canonical instance, the wire
/// bytes and the checksum a batch run_online() gives (the gate's reference).
struct Stream {
  Instance inst;
  std::string bytes;
  std::uint64_t expected = 0;
};

/// What one serve_stream() call produced, timed from outside.
struct Served {
  serve::ServeResult res;
  Clock::time_point called;  ///< serve_stream() was entered
  Clock::time_point start;   ///< the first frame was due
  Clock::time_point end;     ///< serve_stream() returned
  std::vector<Clock::time_point> admitted;  ///< on_admit times, by seq
  std::uint64_t sink_bytes = 0;
  bool ok = false;
};

/// Everything the traced passes add on top of the untraced run.
struct Traced {
  Tracer tracer;
  Tracer twin;  ///< batch twin of the same streams: engine dispatch cost
  std::vector<WakeupCapture> wakeups;
  double wall_s = 0.0;
  double twin_wall_s = 0.0;
  FsyncTotals fsync{&tracer};     ///< in the traced daemon runs
  FsyncTotals twin_fsync{&twin};  ///< in the twin runs
  std::uint64_t read_calls = 0, read_bytes = 0;
};

/// The gates' reference checksum (one bit flipped on request, so that the
/// self-test can prove the gates fail).
std::uint64_t expected_checksum(const Stream& s, const Args& args) {
  return args.corrupt_expected_checksum ? s.expected ^ 1u : s.expected;
}

/// Applies the per-stream gates and folds the run's awct into `awct_log`.
void check_stream(const Stream& s, const Served& r, const Args& args,
                  const std::string& label, Report& report,
                  std::vector<double>& awct_log) {
  report.gate(r.ok, label + ": serve_stream threw");
  if (!r.ok) return;
  report.gate(r.res.jobs == s.inst.num_jobs(),
              label + ": admitted job count differs from the stream");
  report.gate(r.res.placement_checksum == expected_checksum(s, args),
              label + ": streaming checksum differs from batch run_online");
  const mris::ValidationResult v =
      mris::validate_schedule(s.inst, r.res.run.schedule);
  report.gate(static_cast<bool>(v), label + ": invalid schedule: " + v.message);
  const auto& rec = r.res.run.recovery;
  report.gate(rec.snapshot_failures == 0 && rec.journal_failures == 0 &&
                  !rec.degraded_journal_only && !rec.degraded_in_memory,
              label + ": durability degraded");
  if (v) {
    awct_log.push_back(std::log(
        mris::average_weighted_completion_time(s.inst, r.res.run.schedule)));
  }
}

/// One serve_stream() call reading `transport`, with a CSV sink in `dir`
/// and, when `t` is set, every probe attached.  `start` is left to the
/// caller: the closed loop starts at the call, the open loop at its first
/// scheduled frame.
Served serve_once(std::streambuf& transport, const Stream& s,
                  const mris::exp::SchedulerSpec& spec, const fs::path& dir,
                  const std::string& state_dir, Traced* t) {
  Served r;
  std::ofstream csv((dir / "sink.csv").string(), std::ios::trunc);
  serve::CsvSink sink(csv);
  serve::ServeOptions o;
  o.num_machines = s.inst.num_machines();
  o.num_resources = s.inst.num_resources();
  o.state_dir = state_dir;
  o.sink = &sink;
  const Instance& inst = s.inst;
  o.make_scheduler = [&inst, &spec] {
    return mris::exp::make_scheduler(spec, inst);
  };
  r.admitted.reserve(inst.num_jobs());
  o.on_admit = [&r, t](std::uint64_t admitted) {
    r.admitted.push_back(Clock::now());
    if (t != nullptr) t->tracer.request = static_cast<std::int64_t>(admitted);
  };
  std::istream in(&transport);
  std::unique_ptr<TimingSink> timed_sink;
  std::unique_ptr<TimingStreambuf> timed_in;
  if (t != nullptr) {
    std::vector<WakeupCapture>* wakeups =
        spec.kind == mris::exp::SchedulerKind::kMris ? &t->wakeups : nullptr;
    o.make_scheduler = [&inst, &spec, t, wakeups] {
      return std::make_unique<ProbeScheduler>(
          mris::exp::make_scheduler(spec, inst), &t->tracer, spec_key(spec),
          nullptr, nullptr, wakeups);
    };
    timed_sink = std::make_unique<TimingSink>(sink, t->tracer);
    o.sink = timed_sink.get();
    timed_in = std::make_unique<TimingStreambuf>(transport, t->tracer);
    in.rdbuf(timed_in.get());
    set_fsync_probe(&t->fsync);
  }
  r.called = Clock::now();
  try {
    r.res = serve::serve_stream(in, o);
    r.ok = true;
  } catch (const std::exception&) {
    r.ok = false;
  }
  r.end = Clock::now();
  set_fsync_probe(nullptr);
  csv.flush();
  r.sink_bytes = static_cast<std::uint64_t>(csv.tellp());
  if (t != nullptr) {
    t->wall_s += seconds_between(r.called, r.end);
    t->read_calls += timed_in->calls;
    t->read_bytes += timed_in->bytes;
  }
  return r;
}

/// The batch twin: run_online() of the same instance under the probes,
/// with the daemon's sink and recovery options.  The engine's own dispatch
/// time is the twin's wall minus the probed layers and its fsyncs.
void run_twin(const Stream& s, const mris::exp::SchedulerSpec& spec,
              const fs::path& dir, bool durable, Traced& t, const Args& args,
              Report& report, const std::string& label) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  std::ofstream csv((dir / "sink.csv").string(), std::ios::trunc);
  serve::CsvSink csv_sink(csv);
  TimingSink sink(csv_sink, t.twin);
  mris::recovery::RecoveryOptions recovery;
  recovery.snapshot_path = (dir / "engine.snap").string();
  recovery.journal_path = (dir / "engine.journal").string();
  serve::PlacementChecksum checksum;
  mris::RunOptions opts;
  if (durable) opts.recovery = &recovery;
  opts.on_record = [&checksum, &sink](const mris::EventRecord& rec) {
    if (rec.kind == mris::EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
    sink.event(rec);
  };
  ProbeScheduler probe(mris::exp::make_scheduler(spec, s.inst), &t.twin,
                       spec_key(spec), nullptr, nullptr, nullptr);
  set_fsync_probe(&t.twin_fsync);
  const auto t0 = Clock::now();
  mris::run_online(s.inst, probe, opts);
  sink.flush();
  t.twin_wall_s += seconds_between(t0, Clock::now());
  set_fsync_probe(nullptr);
  report.gate(checksum.value() == expected_checksum(s, args),
              label + ": traced batch twin checksum differs");
}

/// Per-layer metrics shared by both serve workloads.
void report_layers(const std::vector<Stream>& streams,
                   const std::vector<Served>& untraced, Traced& t,
                   double untraced_wall_s,
                   const mris::exp::SchedulerSpec& spec, Report& report) {
  const Tracer& tr = t.tracer;
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };

  std::vector<std::string> wire;
  std::uint64_t frames = 0;
  for (const Stream& s : streams) wire.push_back(s.bytes);
  const double decode_us = decode_us_per_frame(
      wire, static_cast<std::uint32_t>(streams.front().inst.num_resources()),
      frames);
  report.set("serve.protocol.decode_us_per_frame", decode_us, "us");

  report.set("serve.read.calls", static_cast<double>(t.read_calls), "count");
  report.set("serve.read.bytes_per_call",
             t.read_calls > 0 ? static_cast<double>(t.read_bytes) /
                                    static_cast<double>(t.read_calls)
                              : 0.0,
             "bytes");
  report.set("serve.read.blocked_ms", ms(tr.self_ns(Layer::kRead)), "ms");

  double drain_ms = 0.0, events = 0.0, sink_bytes = 0.0;
  double journal_bytes = 0.0, snapshots = 0.0, io_retries = 0.0;
  for (const Served& r : untraced) {
    if (!r.admitted.empty()) {
      drain_ms += us_between(r.admitted.back(), r.end) / 1e3;
    }
    events += static_cast<double>(r.res.run.num_events);
    sink_bytes += static_cast<double>(r.sink_bytes);
    journal_bytes += static_cast<double>(r.res.run.recovery.journal_bytes);
    snapshots += static_cast<double>(r.res.run.recovery.snapshots_taken);
    io_retries += static_cast<double>(r.res.run.recovery.io_retries);
  }
  report.set("serve.drain_ms", drain_ms, "ms");
  const double sink_events = static_cast<double>(tr.calls(Layer::kSink));
  report.set("serve.sink.events", sink_events, "count");
  report.set("serve.sink.us_per_event",
             sink_events > 0 ? static_cast<double>(tr.self_ns(Layer::kSink)) /
                                   1e3 / sink_events
                             : 0.0,
             "us");
  report.set("serve.sink.bytes", sink_bytes, "bytes");
  report.set("sim.engine.events", events, "count");
  report.set("sim.recovery.journal_bytes", journal_bytes, "bytes");
  report.set("sim.recovery.snapshots", snapshots, "count");
  report.set("sim.recovery.io_retries", io_retries, "count");

  report.set("sim.calendar.fit_calls",
             static_cast<double>(tr.calls(Layer::kFit)), "count");
  report.set("sim.calendar.fit_ms", ms(tr.self_ns(Layer::kFit)), "ms");
  report.set("sim.calendar.commit_calls",
             static_cast<double>(tr.calls(Layer::kCommit)), "count");
  report.set("sim.calendar.commit_ms", ms(tr.self_ns(Layer::kCommit)), "ms");

  const std::string key = spec_key(spec);
  const auto it = tr.sched_totals().find(key);
  const double sched_ms = it != tr.sched_totals().end() ? ms(it->second.self_ns) : 0.0;
  report.set("sched." + key + ".callbacks",
             it != tr.sched_totals().end()
                 ? static_cast<double>(it->second.callbacks)
                 : 0.0,
             "count");
  report.set("sched." + key + ".self_ms", sched_ms, "ms");

  // Engine dispatch: the batch twin's wall minus its probed layers.
  const Tracer& tw = t.twin;
  const double engine_ms =
      t.twin_wall_s * 1e3 - ms(tw.self_ns(Layer::kFit)) -
      ms(tw.self_ns(Layer::kCommit)) - ms(tw.self_ns(Layer::kSched)) -
      ms(tw.self_ns(Layer::kSink)) - ms(tw.self_ns(Layer::kFsync));
  report.set("serve.admission_journal.fsync_ms", ms(t.fsync.admission_ns),
             "ms");
  report.set("sim.recovery.fsync_ms", ms(t.fsync.recovery_ns), "ms");
  report.set("sim.engine.self_ms", engine_ms, "ms");

  if (!t.wakeups.empty()) replay_wakeups(t.wakeups, spec.mris.eps, report);

  const double traced_ms = t.wall_s * 1e3;
  const double layers_ms =
      ms(tr.self_ns(Layer::kRead)) + ms(tr.self_ns(Layer::kSink)) + sched_ms +
      ms(tr.self_ns(Layer::kFit)) + ms(tr.self_ns(Layer::kCommit)) +
      engine_ms + decode_us * static_cast<double>(frames) / 1e3 +
      ms(tr.self_ns(Layer::kFsync));
  report.set("trace.overhead_frac", t.wall_s / untraced_wall_s - 1.0,
             "fraction");
  report.set("trace.unattributed_frac", 1.0 - layers_ms / traced_ms,
             "fraction");
}

std::size_t jobs_for(double n, const Args& args) {
  return std::max<std::size_t>(
      64, static_cast<std::size_t>(std::llround(n * args.scale)));
}

}  // namespace

// ---- serve-mris-overload -----------------------------------------------

void run_serve_mris_overload(const Args& args, Report& report) {
  // Sub-streams of 24 000 jobs, the size where the backlog reaches ~10^4
  // jobs and a wakeup's CADP takes ~0.3 s.  Their time units are
  // staggered over one octave of MRIS's gamma_k = 2^k grid, so every run
  // sees the same spread of stream-end phases instead of one seed's.
  constexpr double kOverload = 2.0;
  constexpr double kMeanVolume = 2048.0;
  const std::size_t subs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds * 0.8)));
  const std::size_t n = jobs_for(24000, args);
  const mris::exp::SchedulerSpec spec = mris::exp::parse_scheduler_spec("mris");

  std::vector<Stream> streams;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::vector<Stream> built;
    for (std::size_t i = 0; i < subs; ++i) {
      const double phase =
          std::exp2(static_cast<double>(i) / static_cast<double>(subs));
      Stream s{poisson_instance(n, kMachines, kOverload, kMeanVolume * phase,
                                args.seed * 1000 + i),
               {}, 0};
      s.bytes = serve::encode_stream(
          s.inst.jobs(), static_cast<std::uint32_t>(s.inst.num_resources()));
      built.push_back(std::move(s));
    }
    setups.push_back(seconds_between(t0, Clock::now()));
    streams = std::move(built);
  }
  report.set("setup_s", median(setups), "s");

  const fs::path dir = fs::path(args.work_dir);
  const auto serve_one = [&](const Stream& s, Traced* t) {
    std::istringstream in(s.bytes);
    Served r = serve_once(*in.rdbuf(), s, spec, dir, "", t);
    r.start = r.called;
    if (t != nullptr) {
      Clock::time_point due = r.start;
      for (std::size_t i = 0; i < r.admitted.size(); ++i) {
        t->tracer.add_span("serve.admit", t->tracer.ns_at(due),
                           t->tracer.ns_at(r.admitted[i]),
                           static_cast<std::int64_t>(i));
        due = r.admitted[i];
      }
    }
    return r;
  };

  std::vector<Served> runs;
  double wall = 0.0;
  for (const Stream& s : streams) {
    runs.push_back(serve_one(s, nullptr));
    wall += seconds_between(runs.back().start, runs.back().end);
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Closed loop: each admission was due when the previous one finished.
  // Throughput and percentiles are medians over the sub-streams, so a
  // burst of contention on a shared host moves one sub-stream, not the
  // run; SLO misses are rare, so they are pooled.
  std::vector<double> throughput, p50, p99;
  std::size_t misses = 0, attempted = 0, samples = 0;
  std::vector<double> awct_log;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Served& r = runs[i];
    streams[i].expected = batch_checksum(streams[i].inst, spec);
    check_stream(streams[i], r, args, "stream " + std::to_string(i), report,
                 awct_log);
    attempted += streams[i].inst.num_jobs();
    misses += streams[i].inst.num_jobs() - r.admitted.size();
    std::vector<double> latency;
    Clock::time_point due = r.start;
    for (const Clock::time_point& a : r.admitted) {
      latency.push_back(us_between(due, a));
      misses += latency.back() > kSloUs ? 1 : 0;
      due = a;
    }
    samples += latency.size();
    p50.push_back(quantile(latency, 0.5));
    p99.push_back(quantile(latency, 0.99));
    throughput.push_back(
        static_cast<double>(r.ok ? placed_jobs(r.res.run.schedule) : 0) /
        seconds_between(r.start, r.end));
  }
  report.set("jobs_per_s", median(throughput), "jobs/s");
  report.set("admit_latency_p50_us", median(p50), "us");
  report.set("admit_latency_p99_us", median(p99), "us");
  report.info["admit_latency_samples"] = std::to_string(samples);
  report.set("slo_miss_frac",
             static_cast<double>(misses) / static_cast<double>(attempted),
             "fraction");
  report.set("awct", exp_mean(awct_log), "time");
  if (!args.trace) return;

  Traced t;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    std::vector<double> ignored;
    const Served r = serve_one(streams[i], &t);
    check_stream(streams[i], r, args, "traced stream " + std::to_string(i),
                 report, ignored);
    run_twin(streams[i], spec, dir / "twin", false, t, args, report,
             "stream " + std::to_string(i));
  }
  t.tracer.write_spans((dir / "spans.json").string());
  const JournalCost journal = journal_append_cost(streams.front().inst, dir);
  report.set("serve.admission_journal.append_us_p50", journal.p50_us, "us");
  report.set("serve.admission_journal.append_us_p99", journal.p99_us, "us");
  report.info["serve.storage"] = journal.storage;
  report.set("sched.mris.awct", report.metrics["awct"].value, "time");
  // No state dir: the admission journal does no work in this run.
  report_layers(streams, runs, t, wall, spec, report);
}

// ---- serve-pq-paced ----------------------------------------------------

namespace {

/// Writes every frame to the pipe at its scheduled wall time (open loop),
/// then the End frame, then closes the write end.
struct Producer {
  int fd = -1;
  const std::vector<std::string>* frames = nullptr;  ///< Hello, jobs..., End
  const std::vector<Clock::time_point>* due = nullptr;  ///< per job frame
  std::vector<Clock::time_point> sent;
  bool write_failed = false;

  bool write_all(const std::string& b) {
    std::size_t off = 0;
    while (off < b.size()) {
      const ssize_t w = ::write(fd, b.data() + off, b.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  void run() {
    const std::size_t n = due->size();
    sent.reserve(n);
    bool ok = write_all(frames->front());
    for (std::size_t i = 0; ok && i < n; ++i) {
      const Clock::time_point at = (*due)[i];
      std::this_thread::sleep_until(at - std::chrono::microseconds(200));
      while (Clock::now() < at) {
      }
      sent.push_back(Clock::now());
      ok = write_all((*frames)[i + 1]);
    }
    ok = ok && write_all(frames->back());
    write_failed = !ok;
    ::close(fd);
  }
};

}  // namespace

void run_serve_pq_paced(const Args& args, Report& report) {
  // The run is split into daemon sessions of ~2 s, each a fresh stream,
  // pipe and state dir; latency figures are medians over sessions, so one
  // stall of the shared disk moves one session, not the run.
  constexpr double kRate = 500.0;  // frames per wall-clock second
  constexpr double kLoad = 0.9;
  constexpr double kMeanVolume = 2048.0;
  const std::size_t sessions = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds / 2.0)));
  const std::size_t n = jobs_for(
      kRate * args.seconds / static_cast<double>(sessions), args);
  const mris::exp::SchedulerSpec spec =
      mris::exp::parse_scheduler_spec("pq-wsjf");

  const fs::path dir = fs::path(args.work_dir);
  const fs::path state = dir / "state";
  const std::string storage = filesystem_type(args.work_dir);
  report.info["serve.storage"] = storage;
  if (storage == "tmpfs" || storage == "ramfs") {
    report.gate(false, "state dir is on " + storage +
                           "; durable admission needs a real filesystem");
    return;
  }

  struct Session {
    Stream s;
    std::vector<std::string> frames;  ///< Hello, one per job, End
    std::vector<double> offsets_s;    ///< due time of each job frame
  };
  std::vector<Session> plan;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::vector<Session> built(sessions);
    for (std::size_t k = 0; k < sessions; ++k) {
      Session& ses = built[k];
      const std::uint64_t seed = args.seed * 1000 + k;
      ses.s.inst = poisson_instance(n, kMachines, kLoad, kMeanVolume, seed);
      const auto r = static_cast<std::uint32_t>(ses.s.inst.num_resources());
      ses.frames.assign(1, {});
      serve::encode_hello(ses.frames.back(), r);
      for (std::size_t i = 0; i < n; ++i) {
        ses.frames.emplace_back();
        serve::encode_job(ses.frames.back(), i, ses.s.inst.jobs()[i]);
      }
      ses.frames.emplace_back();
      serve::encode_end(ses.frames.back(), n);
      for (const std::string& f : ses.frames) ses.s.bytes += f;
      mris::util::Xoshiro256 rng(seed ^ 0x6c6f616467656eULL);  // "loadgen"
      ses.offsets_s.assign(n, 0.0);
      double at = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        at += -std::log1p(-mris::util::uniform01(rng)) / kRate;
        ses.offsets_s[i] = at;
      }
    }
    setups.push_back(seconds_between(t0, Clock::now()));
    plan = std::move(built);
  }

  struct Paced {
    Served served;
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> sent;
    double start_s = 0.0;  ///< pipe + producer start
    bool write_failed = false;
  };
  const auto serve_paced = [&](const Session& ses, Traced* t) {
    Paced p;
    std::error_code ec;
    fs::remove_all(state, ec);
    const auto t0 = Clock::now();
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    // Start the stream a little after the producer starts, so the first
    // frame is not late by the thread's start-up.
    const Clock::time_point start = t0 + std::chrono::milliseconds(20);
    p.due.reserve(n);
    for (double off : ses.offsets_s) {
      p.due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(off)));
    }
    Producer producer{fds[1], &ses.frames, &p.due, {}, false};
    std::thread thread([&producer] { producer.run(); });
    p.start_s = seconds_between(t0, Clock::now());

    try {
      // Read the pipe the way mris_serve reads std::cin.  Leaving this
      // scope closes the read end: a producer still writing gets EPIPE.
      __gnu_cxx::stdio_filebuf<char> filebuf(fds[0], std::ios::in);
      p.served = serve_once(filebuf, ses.s, spec, dir, state.string(), t);
    } catch (...) {
      thread.join();
      throw;
    }
    p.served.start = start;
    thread.join();
    p.sent = std::move(producer.sent);
    p.write_failed = producer.write_failed;
    if (t != nullptr) {
      for (std::size_t i = 0; i < p.served.admitted.size(); ++i) {
        t->tracer.add_span("serve.admit", t->tracer.ns_at(p.due[i]),
                           t->tracer.ns_at(p.served.admitted[i]),
                           static_cast<std::int64_t>(i));
      }
    }
    return p;
  };

  std::vector<Paced> runs;
  for (const Session& ses : plan) runs.push_back(serve_paced(ses, nullptr));
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Open loop: each admission was due at its frame's scheduled send time.
  std::vector<double> p50, p99, miss_frac, starts, awct_log;
  std::vector<Stream> streams;
  std::vector<Served> served;
  std::size_t placed = 0, samples = 0;
  double wall = 0.0;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    Paced& run = runs[k];
    Served& r = run.served;
    std::vector<double> latency;
    std::size_t misses = n - r.admitted.size();
    for (std::size_t i = 0; i < r.admitted.size(); ++i) {
      latency.push_back(us_between(run.due[i], r.admitted[i]));
      misses += latency.back() > kSloUs ? 1 : 0;
    }
    samples += latency.size();
    p50.push_back(quantile(latency, 0.5));
    p99.push_back(quantile(latency, 0.99));
    miss_frac.push_back(static_cast<double>(misses) / static_cast<double>(n));
    starts.push_back(run.start_s);
    plan[k].s.expected = batch_checksum(plan[k].s.inst, spec);
    const std::string label = "paced session " + std::to_string(k);
    check_stream(plan[k].s, r, args, label, report, awct_log);
    report.gate(!run.write_failed, label + ": producer could not write");
    placed += r.ok ? placed_jobs(r.res.run.schedule) : 0;
    wall += seconds_between(r.start, r.end);
    streams.push_back(plan[k].s);
    served.push_back(r);
  }
  report.set("setup_s", median(setups) + median(starts), "s");
  report.set("jobs_per_s", static_cast<double>(placed) / wall, "jobs/s");
  report.set("admit_latency_p50_us", median(p50), "us");
  report.set("admit_latency_p99_us", median(p99), "us");
  report.info["admit_latency_samples"] = std::to_string(samples);
  report.set("slo_miss_frac", median(miss_frac), "fraction");
  report.set("awct", exp_mean(awct_log), "time");
  if (!args.trace) return;

  // Load-generator health, from the untraced sessions.
  std::vector<double> late;
  std::size_t backlog_max = 0;
  for (const Paced& run : runs) {
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
      late.push_back(us_between(run.due[i], run.sent[i]));
    }
    const auto& admitted = run.served.admitted;
    std::size_t due_count = 0;
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      while (due_count < run.due.size() && run.due[due_count] <= admitted[i]) {
        ++due_count;
      }
      backlog_max = std::max(backlog_max, due_count - i);
    }
  }
  report.set("loadgen.late_p99_us", quantile(late, 0.99), "us");
  report.set("loadgen.backlog_max", static_cast<double>(backlog_max), "count");

  Traced t;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const Paced traced = serve_paced(plan[k], &t);
    std::vector<double> ignored;
    const std::string label = "traced paced session " + std::to_string(k);
    check_stream(plan[k].s, traced.served, args, label, report, ignored);
    run_twin(plan[k].s, spec, dir / "twin", true, t, args, report, label);
  }
  t.tracer.write_spans((dir / "spans.json").string());

  const JournalCost journal = journal_append_cost(plan.front().s.inst, dir);
  report.set("serve.admission_journal.append_us_p50", journal.p50_us, "us");
  report.set("serve.admission_journal.append_us_p99", journal.p99_us, "us");
  report.set("sched.pq-wsjf.awct", report.metrics["awct"].value, "time");
  report_layers(streams, served, t, wall, spec, report);
}

}  // namespace perfbench
