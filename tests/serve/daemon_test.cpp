// End-to-end daemon tests (serve/daemon.hpp): a protocol stream served
// through serve_stream() must reproduce the batch run of the same workload
// byte-for-byte — placements, placement checksum, and the sink's rendered
// output — across generator families, schedulers, sink kinds and transport
// shapes; the incremental-CADP scheduler must change none of it.  The read
// loop is frame-exact: over a real pipe it admits each frame before the
// producer sends the next (lock-step), and it fires the scheduler's idle
// hook only at a frame boundary with nothing buffered.
#include "serve/daemon.hpp"

#include <ext/stdio_filebuf.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "exp/schedulers.hpp"
#include "serve/protocol.hpp"
#include "testkit/generators.hpp"
#include "testkit/streams.hpp"

namespace mris::serve {
namespace {

using testkit::Family;
using testkit::GenConfig;
using testkit::make_family_instance;

/// The canonical streamed form of an instance: jobs in admission order
/// (release, ties by id), reindexed so streamed ids match batch ids.
Instance canonical(const Instance& inst) {
  std::vector<Job> jobs = inst.jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
  }
  return Instance(std::move(jobs), inst.num_machines(), inst.num_resources());
}

struct BatchReference {
  RunResult run;
  std::uint64_t checksum = 0;
  std::string sink_output;
};

/// Runs the batch engine with the same sink + checksum plumbing the daemon
/// uses, so both sides render through identical code paths.
BatchReference run_batch(const Instance& inst, const std::string& scheduler,
                         SinkKind sink_kind) {
  BatchReference ref;
  std::ostringstream sink_out;
  const std::unique_ptr<MetricsSink> sink = make_sink(sink_kind, sink_out);
  PlacementChecksum checksum;
  RunOptions opts;
  opts.on_record = [&](const EventRecord& rec) {
    if (rec.kind == EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
    sink->event(rec);
  };
  const auto sched =
      exp::make_scheduler(exp::parse_scheduler_spec(scheduler), inst);
  ref.run = run_online(inst, *sched, opts);
  ref.checksum = checksum.value();
  ref.sink_output = sink_out.str();
  return ref;
}

ServeOptions serve_options(const Instance& inst, const std::string& scheduler,
                           MetricsSink* sink) {
  ServeOptions opts;
  opts.num_machines = inst.num_machines();
  opts.num_resources = inst.num_resources();
  opts.sink = sink;
  opts.make_scheduler = [&inst, scheduler] {
    return exp::make_scheduler(exp::parse_scheduler_spec(scheduler), inst);
  };
  return opts;
}

/// The stream's frames as separate wire strings: Hello, one per job, End.
std::vector<std::string> encode_frames(const Instance& inst) {
  std::vector<std::string> frames(inst.num_jobs() + 2);
  encode_hello(frames.front(),
               static_cast<std::uint32_t>(inst.num_resources()));
  for (std::size_t i = 0; i < inst.num_jobs(); ++i) {
    encode_job(frames[i + 1], i, inst.job(static_cast<JobId>(i)));
  }
  encode_end(frames.back(), inst.num_jobs());
  return frames;
}

/// Unbuffered transport shaped like libstdc++'s default std::cin
/// (stdio_sync_filebuf): no get area, one byte per uflow(), and
/// in_avail() == 0 always — so every daemon read is a blocking exact read.
/// Records the largest single read request.
class OneByteStreambuf : public std::streambuf {
 public:
  explicit OneByteStreambuf(std::string bytes) : bytes_(std::move(bytes)) {}
  std::streamsize max_request = 0;

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    max_request = std::max(max_request, n);
    return std::streambuf::xsgetn(s, n);
  }
  int_type underflow() override {
    return pos_ < bytes_.size() ? traits_type::to_int_type(bytes_[pos_])
                                : traits_type::eof();
  }
  int_type uflow() override {
    return pos_ < bytes_.size() ? traits_type::to_int_type(bytes_[pos_++])
                                : traits_type::eof();
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

/// Transport that delivers its bytes in seeded random chunks of 1-7 bytes,
/// reporting only the current chunk as available — length prefixes and
/// CRCs routinely arrive split across chunks.
class ChunkedStreambuf : public std::streambuf {
 public:
  ChunkedStreambuf(std::string bytes, std::uint64_t seed)
      : bytes_(std::move(bytes)),
        rng_(testkit::make_stream(seed, "serve-transport-chunks")) {}

 protected:
  int_type underflow() override {
    if (pos_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(
        1 + util::uniform_index(rng_, 7), bytes_.size() - pos_);
    char* at = bytes_.data() + pos_;
    setg(at, at, at + n);
    pos_ += n;
    return traits_type::to_int_type(*at);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
  util::Xoshiro256 rng_;
};

enum class Transport { kInMemory, kOneByte, kChunked, kPipe };

constexpr Transport kTransports[] = {Transport::kInMemory, Transport::kOneByte,
                                     Transport::kChunked, Transport::kPipe};

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kInMemory: return "in-memory";
    case Transport::kOneByte: return "one-byte";
    case Transport::kChunked: return "chunked";
    case Transport::kPipe: return "pipe";
  }
  return "?";
}

std::unique_ptr<std::streambuf> make_transport(Transport t, std::string bytes,
                                               std::uint64_t seed) {
  switch (t) {
    case Transport::kInMemory:
      return std::make_unique<std::stringbuf>(std::move(bytes),
                                              std::ios::in);
    case Transport::kOneByte:
      return std::make_unique<OneByteStreambuf>(std::move(bytes));
    case Transport::kChunked:
      return std::make_unique<ChunkedStreambuf>(std::move(bytes), seed);
    case Transport::kPipe: {
      // A real pipe already holding the whole stream, read through
      // stdio_filebuf the way mris_serve reads stdin.  The write end is
      // non-blocking so a stream past the pipe's capacity fails loudly.
      int fds[2];
      if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
      ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
      const ssize_t w = ::write(fds[1], bytes.data(), bytes.size());
      ::close(fds[1]);
      if (w != static_cast<ssize_t>(bytes.size())) {
        ::close(fds[0]);
        throw std::runtime_error("stream does not fit in a pipe");
      }
      return std::make_unique<__gnu_cxx::stdio_filebuf<char>>(fds[0],
                                                              std::ios::in);
    }
  }
  return nullptr;
}

/// Forwards every callback to `inner` and reports each on_idle to `hook`.
class IdleCountingScheduler : public OnlineScheduler {
 public:
  IdleCountingScheduler(std::unique_ptr<OnlineScheduler> inner,
                        std::function<void()> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  std::string name() const override { return inner_->name(); }
  void on_start(EngineContext& ctx) override { inner_->on_start(ctx); }
  void on_arrival(EngineContext& ctx, JobId job) override {
    inner_->on_arrival(ctx, job);
  }
  void on_completion(EngineContext& ctx, JobId job,
                     MachineId machine) override {
    inner_->on_completion(ctx, job, machine);
  }
  void on_wakeup(EngineContext& ctx) override { inner_->on_wakeup(ctx); }
  void on_machine_down(EngineContext& ctx, MachineId machine) override {
    inner_->on_machine_down(ctx, machine);
  }
  void on_machine_up(EngineContext& ctx, MachineId machine) override {
    inner_->on_machine_up(ctx, machine);
  }
  void on_retry_ready(EngineContext& ctx, JobId job) override {
    inner_->on_retry_ready(ctx, job);
  }
  void on_idle(EngineContext& ctx) override {
    hook_();
    inner_->on_idle(ctx);
  }
  void save_state(recovery::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(recovery::StateReader& r) override {
    inner_->restore_state(r);
  }

 private:
  std::unique_ptr<OnlineScheduler> inner_;
  std::function<void()> hook_;
};

/// What the lock-step producer waits for before writing frame k (Hello is
/// k = 0, job i is k = i + 1, End is k = n + 1).
enum class Gate {
  kAdmit,  ///< job frame i + 1 (or End) only after on_admit for job i
  kIdle,   ///< frame k only after the daemon's (k + 1)-th on_idle
};

struct PipeRun {
  ServeResult result;
  std::string error;       ///< what() of anything serve_stream threw
  bool timed_out = false;  ///< the producer's bounded wait expired
  std::uint64_t idles = 0;
};

/// Serves `frames` over a real pipe read through stdio_filebuf, the way the
/// daemon reads a pipe on stdin.  A producer thread writes one frame at a
/// time under `gate`; each wait is bounded (5 s) and on expiry the producer
/// closes the pipe, so a daemon that blocks for a later frame's bytes fails
/// the test with "EOF before End" instead of hanging it.
PipeRun serve_lock_step(const std::vector<std::string>& frames,
                        ServeOptions opts, Gate gate) {
  PipeRun run;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t admitted = 0;
  bool done = false;
  const auto bump = [&](auto&& update) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      update();
    }
    cv.notify_all();
  };
  opts.on_admit = [&](std::uint64_t n) { bump([&] { admitted = n; }); };
  opts.make_scheduler = [inner = opts.make_scheduler, &bump, &run] {
    return std::make_unique<IdleCountingScheduler>(
        inner(), [&bump, &run] { bump([&run] { ++run.idles; }); });
  };

  int fds[2];
  if (::pipe(fds) != 0) {
    run.error = "pipe() failed";
    return run;
  }
  std::thread producer([&] {
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const auto ready = [&] {
        return done || (gate == Gate::kAdmit ? admitted + 1 >= k
                                             : run.idles >= k + 1);
      };
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(5), ready)) {
        run.timed_out = true;
      }
      if (done || run.timed_out) break;
      lock.unlock();
      const std::string& f = frames[k];
      for (std::size_t off = 0; off < f.size();) {
        const ssize_t w = ::write(fds[1], f.data() + off, f.size() - off);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
    }
    ::close(fds[1]);
  });
  {
    // Destroying the filebuf closes the read end, after the producer left.
    __gnu_cxx::stdio_filebuf<char> filebuf(fds[0], std::ios::in);
    std::istream in(&filebuf);
    try {
      run.result = serve_stream(in, opts);
    } catch (const std::exception& e) {
      run.error = e.what();
    }
    bump([&] { done = true; });
    producer.join();
  }
  return run;
}

void expect_daemon_matches_batch(
    const Instance& raw, const std::string& scheduler, SinkKind sink_kind,
    const std::string& where, Transport transport = Transport::kInMemory,
    std::uint64_t seed = 0) {
  const Instance inst = canonical(raw);
  const BatchReference batch = run_batch(inst, scheduler, sink_kind);

  const std::unique_ptr<std::streambuf> buf = make_transport(
      transport,
      encode_stream(inst.jobs(),
                    static_cast<std::uint32_t>(inst.num_resources())),
      seed);
  std::istream in(buf.get());
  std::ostringstream sink_out;
  const std::unique_ptr<MetricsSink> sink = make_sink(sink_kind, sink_out);
  const ServeResult served =
      serve_stream(in, serve_options(inst, scheduler, sink.get()));

  EXPECT_EQ(served.frames, inst.num_jobs() + 2) << where;
  EXPECT_EQ(served.jobs, inst.num_jobs()) << where;
  EXPECT_EQ(served.placement_checksum, batch.checksum) << where;
  EXPECT_EQ(sink_out.str(), batch.sink_output) << where;
  for (std::size_t i = 0; i < inst.num_jobs(); ++i) {
    const auto id = static_cast<JobId>(i);
    const Assignment& a = batch.run.schedule.assignment(id);
    const Assignment& b = served.run.schedule.assignment(id);
    EXPECT_EQ(a.machine, b.machine) << where << " job " << i;
    EXPECT_EQ(a.start, b.start) << where << " job " << i;
  }
}

TEST(DaemonTest, StreamedRunMatchesBatchAcrossFamilies) {
  const std::size_t iters = testkit::fuzz_iters(3);
  for (Family family : testkit::all_families()) {
    for (std::uint64_t seed = 0; seed < iters; ++seed) {
      GenConfig config;
      config.num_jobs = 24;
      const Instance inst = make_family_instance(family, config, seed);
      expect_daemon_matches_batch(
          inst, "mris", SinkKind::kCsv,
          std::string(testkit::family_name(family)) + " seed " +
              std::to_string(seed));
    }
  }
}

TEST(DaemonTest, StreamedRunMatchesBatchAcrossSchedulers) {
  GenConfig config;
  config.num_jobs = 32;
  const Instance inst = make_family_instance(Family::kMixed, config, 11);
  for (const char* scheduler :
       {"mris", "mris-greedy", "mris-evscan", "pq-wsjf", "tetris", "drf",
        "hybrid"}) {
    expect_daemon_matches_batch(inst, scheduler, SinkKind::kJsonl, scheduler);
  }
}

TEST(DaemonTest, IncrementalCadpChangesNoByte) {
  // mris-inc must match both its own batch run AND the plain mris daemon:
  // the memo/speculation path may never alter a selection.
  const std::size_t iters = testkit::fuzz_iters(3);
  for (Family family :
       {Family::kMixed, Family::kKnapsackTies, Family::kNearCapacity}) {
    for (std::uint64_t seed = 0; seed < iters; ++seed) {
      GenConfig config;
      config.num_jobs = 28;
      const Instance inst = canonical(
          make_family_instance(family, config, seed));
      for (Transport transport : kTransports) {
        expect_daemon_matches_batch(
            inst, "mris-inc", SinkKind::kCsv,
            std::string("inc/") + transport_name(transport) + " " +
                testkit::family_name(family) + " seed " +
                std::to_string(seed),
            transport, seed);
      }

      std::istringstream in_plain(encode_stream(
          inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
      std::istringstream in_inc(in_plain.str());
      const ServeResult plain =
          serve_stream(in_plain, serve_options(inst, "mris", nullptr));
      const ServeResult inc =
          serve_stream(in_inc, serve_options(inst, "mris-inc", nullptr));
      EXPECT_EQ(plain.placement_checksum, inc.placement_checksum)
          << testkit::family_name(family) << " seed " << seed;

      // A lock-step pipe runs dry at every frame boundary and fires on_idle
      // before each frame, so mris-inc pre-solves its knapsack there: still
      // no byte may change.
      const PipeRun lock_step = serve_lock_step(
          encode_frames(inst), serve_options(inst, "mris-inc", nullptr),
          Gate::kAdmit);
      EXPECT_EQ(lock_step.error, "");
      EXPECT_EQ(lock_step.result.placement_checksum, plain.placement_checksum)
          << "lock-step " << testkit::family_name(family) << " seed " << seed;
    }
  }
}

void expect_lock_step_matches_batch(bool durable) {
  GenConfig config;
  config.num_jobs = 40;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 17));
  const BatchReference batch = run_batch(inst, "mris", SinkKind::kCsv);

  std::ostringstream sink_out;
  const std::unique_ptr<MetricsSink> sink =
      make_sink(SinkKind::kCsv, sink_out);
  ServeOptions opts = serve_options(inst, "mris", sink.get());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mris_serve_test_lock_step";
  if (durable) {
    std::filesystem::remove_all(dir);
    opts.state_dir = dir.string();
    opts.snapshot_every = 8;
  }
  const PipeRun run = serve_lock_step(encode_frames(inst), opts, Gate::kAdmit);
  if (durable) std::filesystem::remove_all(dir);

  EXPECT_FALSE(run.timed_out)
      << "the daemon did not admit a frame until a later one arrived";
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.result.frames, inst.num_jobs() + 2);
  EXPECT_EQ(run.result.jobs, inst.num_jobs());
  EXPECT_EQ(run.result.placement_checksum, batch.checksum);
  EXPECT_EQ(sink_out.str(), batch.sink_output);
}

TEST(DaemonPipeTest, LockStepAdmitsEachFrameBeforeTheNext) {
  expect_lock_step_matches_batch(/*durable=*/false);
}

TEST(DaemonPipeTest, LockStepAdmitsEachFrameBeforeTheNextDurable) {
  expect_lock_step_matches_batch(/*durable=*/true);
}

TEST(DaemonPipeTest, IdleFiresAtEveryFrameBoundaryOfADryPipe) {
  // The producer sends frame k only after the daemon's (k + 1)-th idle, so
  // the daemon must fire on_idle before each blocking wait at a boundary —
  // exactly once per frame, since every frame arrives whole.
  GenConfig config;
  config.num_jobs = 20;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 3));
  const PipeRun run = serve_lock_step(
      encode_frames(inst), serve_options(inst, "mris-inc", nullptr),
      Gate::kIdle);
  EXPECT_FALSE(run.timed_out) << "the daemon blocked without firing on_idle";
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.result.jobs, inst.num_jobs());
  EXPECT_EQ(run.idles, inst.num_jobs() + 2);
}

TEST(DaemonTransportTest, IdleFiresOnlyWhenTheTransportRunsDry) {
  GenConfig config;
  config.num_jobs = 20;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 3));
  const std::string bytes = encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources()));
  // An in-memory stream always has the next chunk buffered, and so does a
  // pipe holding a backlog (stdio_filebuf counts its bytes): never idle.
  // An unbuffered transport reports nothing, so every boundary is a wait.
  for (const auto& [transport, want] :
       {std::pair{Transport::kInMemory, std::uint64_t{0}},
        std::pair{Transport::kPipe, std::uint64_t{0}},
        std::pair{Transport::kOneByte, inst.num_jobs() + 2}}) {
    std::uint64_t idles = 0;
    ServeOptions opts = serve_options(inst, "mris-inc", nullptr);
    opts.make_scheduler = [inner = opts.make_scheduler, &idles] {
      return std::make_unique<IdleCountingScheduler>(inner(),
                                                     [&idles] { ++idles; });
    };
    const std::unique_ptr<std::streambuf> buf =
        make_transport(transport, bytes, 0);
    std::istream in(buf.get());
    const ServeResult r = serve_stream(in, opts);
    EXPECT_EQ(r.jobs, inst.num_jobs()) << transport_name(transport);
    EXPECT_EQ(idles, want) << transport_name(transport);
  }
}

TEST(DaemonTransportTest, EveryTransportShapeMatchesBatch) {
  const std::size_t iters = testkit::fuzz_iters(2);
  for (Family family : {Family::kMixed, Family::kKnapsackTies}) {
    for (std::uint64_t seed = 0; seed < iters; ++seed) {
      GenConfig config;
      config.num_jobs = 30;
      const Instance inst = make_family_instance(family, config, seed);
      for (Transport transport : kTransports) {
        expect_daemon_matches_batch(
            inst, "mris", SinkKind::kCsv,
            std::string(transport_name(transport)) + " " +
                testkit::family_name(family) + " seed " +
                std::to_string(seed),
            transport, seed);
      }
    }
  }

  // Exact reads: an unbuffered transport is never asked for bytes past
  // the pending frame.
  GenConfig config;
  config.num_jobs = 30;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 0));
  std::size_t largest_frame = 0;
  for (const std::string& f : encode_frames(inst)) {
    largest_frame = std::max(largest_frame, f.size());
  }
  OneByteStreambuf buf(encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
  std::istream in(&buf);
  EXPECT_EQ(serve_stream(in, serve_options(inst, "mris", nullptr)).jobs,
            inst.num_jobs());
  EXPECT_LE(buf.max_request, static_cast<std::streamsize>(largest_frame));
}

TEST(DaemonTransportTest, TruncationAtEveryOffsetAdmitsNothingPastTheCut) {
  GenConfig config;
  config.num_jobs = 5;
  const Instance inst =
      canonical(make_family_instance(Family::kMixed, config, 8));
  const std::vector<std::string> frames = encode_frames(inst);
  std::string bytes;
  std::vector<std::size_t> job_ends;  // byte offset just past each Job frame
  for (std::size_t k = 0; k < frames.size(); ++k) {
    bytes += frames[k];
    if (k >= 1 && k <= inst.num_jobs()) job_ends.push_back(bytes.size());
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto whole_jobs = static_cast<std::uint64_t>(
        std::upper_bound(job_ends.begin(), job_ends.end(), cut) -
        job_ends.begin());
    for (Transport transport : kTransports) {
      const std::string where = std::string(transport_name(transport)) +
                                " cut " + std::to_string(cut);
      std::uint64_t admitted = 0;
      ServeOptions opts = serve_options(inst, "mris", nullptr);
      opts.on_admit = [&admitted](std::uint64_t n) { admitted = n; };
      const std::unique_ptr<std::streambuf> buf =
          make_transport(transport, bytes.substr(0, cut), cut);
      std::istream in(buf.get());
      try {
        serve_stream(in, opts);
        ADD_FAILURE() << where << ": truncated stream was accepted";
      } catch (const ProtocolError& e) {
        EXPECT_NE(std::string(e.what()).find("EOF before"),
                  std::string::npos)
            << where << ": " << e.what();
      }
      EXPECT_EQ(admitted, whole_jobs) << where;
    }
  }
}

TEST(DaemonTest, ReportsLatencyAndFrameCounts) {
  GenConfig config;
  config.num_jobs = 20;
  const Instance inst = canonical(
      make_family_instance(Family::kMixed, config, 5));
  std::istringstream in(encode_stream(
      inst.jobs(), static_cast<std::uint32_t>(inst.num_resources())));
  const ServeResult r =
      serve_stream(in, serve_options(inst, "mris", nullptr));
  EXPECT_EQ(r.frames, inst.num_jobs() + 2);  // Hello + jobs + End
  EXPECT_EQ(r.latency.samples, inst.num_jobs());
  EXPECT_GE(r.latency.p99_us, r.latency.p50_us);
  EXPECT_GE(r.latency.max_us, r.latency.p99_us);
  EXPECT_FALSE(r.resumed_from_snapshot);
}

TEST(DaemonTest, RejectsMissingFactoryAndBadShape) {
  std::istringstream in;
  ServeOptions opts;
  EXPECT_THROW(serve_stream(in, opts), std::invalid_argument);
  opts.make_scheduler = [] {
    return exp::make_scheduler(exp::parse_scheduler_spec("mris"),
                               Instance(std::vector<Job>{}, 1, 1));
  };
  opts.num_machines = 0;
  EXPECT_THROW(serve_stream(in, opts), std::invalid_argument);
}

TEST(DaemonTest, SinkKindsParse) {
  EXPECT_EQ(parse_sink_kind("null"), SinkKind::kNull);
  EXPECT_EQ(parse_sink_kind("csv"), SinkKind::kCsv);
  EXPECT_EQ(parse_sink_kind("jsonl"), SinkKind::kJsonl);
  EXPECT_THROW(parse_sink_kind("xml"), std::invalid_argument);
}

}  // namespace
}  // namespace mris::serve
