// Layer probes for the traced run (perfbench/README.md): wrappers around
// the program's public interfaces — OnlineScheduler, EngineContext,
// MetricsSink and std::streambuf — that time each layer from outside.
//
// Timed regions nest (a commit fires the sink, inside a scheduler
// callback), so the Tracer keeps a stack and charges each region its self
// time: its duration minus the regions inside it.  Scheduler callbacks and
// transport reads become spans; calendar and sink calls are too many for
// one span each (TETRIS alone makes ~10M can_start calls), so they are
// aggregated as counts and time into their enclosing span.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

#include "harness.hpp"
#include "knapsack/knapsack.hpp"
#include "serve/sink.hpp"
#include "sim/engine.hpp"

namespace perfbench {

enum class Layer : int { kRead, kSched, kFit, kCommit, kSink, kFsync, kCount };

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t request = -1;  ///< admission seq (serve) or job id
    std::uint64_t fit_calls = 0, commit_calls = 0, sink_events = 0;
    std::int64_t fit_ns = 0, commit_ns = 0, sink_ns = 0;
  };
  /// Per-scheduler callback totals (self time excludes calendar and sink).
  struct SchedTotals {
    std::uint64_t callbacks = 0;
    std::int64_t self_ns = 0;
  };

  Tracer();

  std::int64_t now_ns() const;
  /// `t` on the span time base (ns since the tracer was made).
  std::int64_t ns_at(Clock::time_point t) const;

  /// Id of a span name, for enter().
  std::uint32_t intern(const std::string& name);

  /// Opens a timed region; a `span_name` id (>= 0) also records a span.
  void enter(Layer layer, std::int64_t span_name = -1,
             SchedTotals* sched = nullptr);
  void leave();

  /// Records a span that is not a timed region (admissions).
  void add_span(const std::string& name, std::int64_t start_ns,
                std::int64_t end_ns, std::int64_t request);

  std::int64_t self_ns(Layer l) const { return self_[static_cast<int>(l)]; }
  std::uint64_t calls(Layer l) const { return calls_[static_cast<int>(l)]; }
  SchedTotals& sched(const std::string& key) { return sched_[key]; }
  const std::map<std::string, SchedTotals>& sched_totals() const {
    return sched_;
  }

  std::int64_t request = -1;  ///< stamped on spans opened from now on

  /// Chrome trace-event JSON of every span (viewable in a trace viewer).
  bool write_spans(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t t0;
    std::int64_t child_ns;
    std::int32_t span;
    SchedTotals* sched;
  };

  Clock::time_point origin_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::array<std::int64_t, static_cast<int>(Layer::kCount)> self_{};
  std::array<std::uint64_t, static_cast<int>(Layer::kCount)> calls_{};
  std::map<std::string, SchedTotals> sched_;
};

/// fsync() probe.  The harness defines fsync() itself; that definition
/// takes precedence over libc's for every call in the process, the
/// repository libraries' included.  While a probe is set, each call is
/// timed and charged by the name of the file it syncs, and is a kFsync
/// region of `tracer`, so an fsync inside a commit is not charged twice.
struct FsyncTotals {
  Tracer* tracer = nullptr;
  std::int64_t admission_ns = 0;  ///< the admission journal (serve)
  std::int64_t recovery_ns = 0;   ///< engine journal and snapshots (sim)
  std::int64_t other_ns = 0;
};

/// Starts charging fsync() calls to `totals`; nullptr stops.
void set_fsync_probe(FsyncTotals* totals);

/// One MRIS wakeup as observed from outside: J_k (pending jobs with
/// p_j <= gamma_k = now), the knapsack capacity R * M * gamma_k, the jobs
/// the wakeup committed, and its wall time.
struct WakeupCapture {
  std::vector<mris::knapsack::Item> items;
  double capacity = 0.0;
  std::vector<std::int32_t> committed;
  std::int64_t wall_ns = 0;
};

/// EngineContext decorator: times the calendar calls (earliest_fit,
/// earliest_fit_on, can_start; commit, try_commit) and notes commits.
class TracedContext : public mris::EngineContext {
 public:
  explicit TracedContext(Tracer* tracer) : tracer_(tracer) {}
  mris::EngineContext* inner = nullptr;
  std::vector<std::int32_t>* committed = nullptr;

  mris::Time now() const override { return inner->now(); }
  int num_machines() const override { return inner->num_machines(); }
  int num_resources() const override { return inner->num_resources(); }
  std::size_t num_jobs() const override { return inner->num_jobs(); }
  const mris::Job& job(mris::JobId id) const override {
    return inner->job(id);
  }
  const std::vector<mris::JobId>& pending() const override {
    return inner->pending();
  }
  const mris::Cluster& cluster() const override { return inner->cluster(); }
  bool can_start(mris::JobId id, mris::MachineId m,
                 mris::Time start) const override;
  mris::Time earliest_fit_on(mris::JobId id, mris::MachineId m,
                             mris::Time not_before) const override;
  mris::Time earliest_fit(mris::JobId id, mris::Time not_before,
                          mris::MachineId& best_machine) const override;
  void commit(mris::JobId id, mris::MachineId m, mris::Time start) override;
  bool try_commit(mris::JobId id, mris::MachineId m,
                  mris::Time start) override;
  void schedule_wakeup(mris::Time t) override { inner->schedule_wakeup(t); }
  int retry_count(mris::JobId id) const override {
    return inner->retry_count(id);
  }
  mris::Time earliest_start(mris::JobId id) const override {
    return inner->earliest_start(id);
  }
  bool machine_up(mris::MachineId m) const override {
    return inner->machine_up(m);
  }
  mris::Time checkpointed_progress(mris::JobId id) const override {
    return inner->checkpointed_progress(id);
  }

 private:
  Tracer* tracer_;
};

/// OnlineScheduler decorator.  Untraced (tracer == nullptr) it only stamps
/// the wall clock after every on_arrival (the batch closed loop's admission
/// clock) and after every callback (its decision clock).  Traced it turns each callback into a span, hands the
/// scheduler a TracedContext, and, given `wakeups`, records each wakeup's
/// knapsack input for the CADP replay.
class ProbeScheduler : public mris::OnlineScheduler {
 public:
  ProbeScheduler(std::unique_ptr<mris::OnlineScheduler> inner,
                 Tracer* tracer, const std::string& key,
                 std::vector<Clock::time_point>* arrival_clock,
                 std::vector<Clock::time_point>* decision_clock,
                 std::vector<WakeupCapture>* wakeups);

  std::string name() const override { return inner_->name(); }
  void on_start(mris::EngineContext& ctx) override;
  void on_arrival(mris::EngineContext& ctx, mris::JobId job) override;
  void on_completion(mris::EngineContext& ctx, mris::JobId job,
                     mris::MachineId machine) override;
  void on_wakeup(mris::EngineContext& ctx) override;
  void on_machine_down(mris::EngineContext& ctx,
                       mris::MachineId machine) override;
  void on_machine_up(mris::EngineContext& ctx,
                     mris::MachineId machine) override;
  void on_retry_ready(mris::EngineContext& ctx, mris::JobId job) override;
  void on_idle(mris::EngineContext& ctx) override;
  void save_state(mris::recovery::StateWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(mris::recovery::StateReader& r) override {
    inner_->restore_state(r);
  }

 private:
  enum Callback { kStart, kArrival, kCompletion, kWakeup, kDown, kUp, kRetry,
                  kIdle, kCallbacks };

  template <typename F>
  void traced(mris::EngineContext& ctx, Callback callback, F&& call);

  std::unique_ptr<mris::OnlineScheduler> inner_;
  Tracer* tracer_;
  std::string key_;
  std::vector<Clock::time_point>* arrival_clock_;
  std::vector<Clock::time_point>* decision_clock_;
  std::vector<WakeupCapture>* wakeups_;
  TracedContext ctx_;
  Tracer::SchedTotals* totals_ = nullptr;
  std::array<std::uint32_t, kCallbacks> span_names_{};
};

/// MetricsSink decorator timing every event() into the sink layer.
class TimingSink : public mris::serve::MetricsSink {
 public:
  TimingSink(mris::serve::MetricsSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void event(const mris::EventRecord& rec) override;
  void flush() override { inner_.flush(); }

 private:
  mris::serve::MetricsSink& inner_;
  Tracer& tracer_;
};

/// Unbuffered streambuf decorator timing every read of the transport
/// (serve_stream reads through std::istream::read, i.e. xsgetn).
class TimingStreambuf : public std::streambuf {
 public:
  TimingStreambuf(std::streambuf& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), span_name_(tracer.intern("serve.read")) {}
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override;
  int_type underflow() override;

 private:
  std::streambuf& inner_;
  Tracer& tracer_;
  std::uint32_t span_name_;
  char one_ = 0;
};

}  // namespace perfbench
