#include "layers.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

using mris::EngineContext;
using mris::JobId;
using mris::MachineId;
using mris::Time;

Tracer::Tracer() : origin_(Clock::now()) { stack_.reserve(16); }

std::int64_t Tracer::now_ns() const { return ns_at(Clock::now()); }

std::int64_t Tracer::ns_at(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

void Tracer::enter(Layer layer, std::int64_t span_name, SchedTotals* sched) {
  std::int32_t span = -1;
  if (span_name >= 0) {
    Span s;
    s.name = static_cast<std::uint32_t>(span_name);
    s.request = request;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->span >= 0) {
        s.parent = it->span;
        break;
      }
    }
    span = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back({layer, 0, 0, span, sched});
  // Read the clock last, so the bookkeeping above is not charged.
  stack_.back().t0 = now_ns();
  if (span >= 0) spans_[static_cast<std::size_t>(span)].start_ns = stack_.back().t0;
}

void Tracer::leave() {
  const std::int64_t t1 = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t1 - f.t0;
  const int l = static_cast<int>(f.layer);
  self_[l] += dur - f.child_ns;
  ++calls_[l];
  if (f.sched != nullptr) {
    f.sched->self_ns += dur - f.child_ns;
    ++f.sched->callbacks;
  }
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.span >= 0) {
    spans_[static_cast<std::size_t>(f.span)].end_ns = t1;
    return;
  }
  // Calendar and sink calls: aggregate into the innermost open span.
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->span < 0) continue;
    Span& s = spans_[static_cast<std::size_t>(it->span)];
    if (f.layer == Layer::kFit) {
      ++s.fit_calls;
      s.fit_ns += dur;
    } else if (f.layer == Layer::kCommit) {
      ++s.commit_calls;
      s.commit_ns += dur;
    } else if (f.layer == Layer::kSink) {
      ++s.sink_events;
      s.sink_ns += dur;
    }
    break;
  }
}

void Tracer::add_span(const std::string& name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t req) {
  Span s;
  s.name = intern(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.request = req;
  spans_.push_back(s);
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event JSON; a span's id is its index in traceEvents.
  // Calendar/sink aggregates appear only where the span has some.
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                 "\"request\":%lld",
                 names_[s.name].c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent,
                 static_cast<long long>(s.request));
    if (s.fit_calls > 0) {
      std::fprintf(f, ",\"fit_calls\":%llu,\"fit_us\":%.3f",
                   static_cast<unsigned long long>(s.fit_calls),
                   static_cast<double>(s.fit_ns) / 1e3);
    }
    if (s.commit_calls > 0) {
      std::fprintf(f, ",\"commit_calls\":%llu,\"commit_us\":%.3f",
                   static_cast<unsigned long long>(s.commit_calls),
                   static_cast<double>(s.commit_ns) / 1e3);
    }
    if (s.sink_events > 0) {
      std::fprintf(f, ",\"sink_events\":%llu,\"sink_us\":%.3f",
                   static_cast<unsigned long long>(s.sink_events),
                   static_cast<double>(s.sink_ns) / 1e3);
    }
    std::fputs(i + 1 < spans_.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---- TracedContext -----------------------------------------------------

namespace {

/// RAII region on a Tracer (const methods of the context time too).
class Region {
 public:
  Region(Tracer& t, Layer l) : t_(t) { t_.enter(l); }
  ~Region() { t_.leave(); }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  Tracer& t_;
};

}  // namespace

bool TracedContext::can_start(JobId id, MachineId m, Time start) const {
  Region r(*tracer_, Layer::kFit);
  return inner->can_start(id, m, start);
}

Time TracedContext::earliest_fit_on(JobId id, MachineId m,
                                    Time not_before) const {
  Region r(*tracer_, Layer::kFit);
  return inner->earliest_fit_on(id, m, not_before);
}

Time TracedContext::earliest_fit(JobId id, Time not_before,
                                 MachineId& best_machine) const {
  Region r(*tracer_, Layer::kFit);
  return inner->earliest_fit(id, not_before, best_machine);
}

void TracedContext::commit(JobId id, MachineId m, Time start) {
  {
    Region r(*tracer_, Layer::kCommit);
    inner->commit(id, m, start);
  }
  if (committed != nullptr) committed->push_back(id);
}

bool TracedContext::try_commit(JobId id, MachineId m, Time start) {
  bool ok = false;
  {
    Region r(*tracer_, Layer::kCommit);
    ok = inner->try_commit(id, m, start);
  }
  if (ok && committed != nullptr) committed->push_back(id);
  return ok;
}

// ---- ProbeScheduler ----------------------------------------------------

ProbeScheduler::ProbeScheduler(std::unique_ptr<mris::OnlineScheduler> inner,
                               Tracer* tracer, const std::string& key,
                               std::vector<Clock::time_point>* arrival_clock,
                               std::vector<Clock::time_point>* decision_clock,
                               std::vector<WakeupCapture>* wakeups)
    : inner_(std::move(inner)),
      tracer_(tracer),
      key_(key),
      arrival_clock_(arrival_clock),
      decision_clock_(decision_clock),
      wakeups_(wakeups),
      ctx_(tracer) {
  if (tracer_ == nullptr) return;
  totals_ = &tracer_->sched(key_);
  static const char* const kNames[kCallbacks] = {
      "on_start", "on_arrival", "on_completion", "on_wakeup",
      "on_machine_down", "on_machine_up", "on_retry_ready", "on_idle"};
  for (int i = 0; i < kCallbacks; ++i) {
    span_names_[static_cast<std::size_t>(i)] =
        tracer_->intern("sched." + key_ + "." + kNames[i]);
  }
}

template <typename F>
void ProbeScheduler::traced(EngineContext& ctx, Callback callback,
                            F&& call) {
  if (tracer_ == nullptr) {
    call(ctx);
    if (decision_clock_ != nullptr) decision_clock_->push_back(Clock::now());
    return;
  }
  ctx_.inner = &ctx;
  tracer_->enter(Layer::kSched, span_names_[callback], totals_);
  call(ctx_);
  tracer_->leave();
}

void ProbeScheduler::on_start(EngineContext& ctx) {
  traced(ctx, kStart,
         [this](EngineContext& c) { inner_->on_start(c); });
}

void ProbeScheduler::on_arrival(EngineContext& ctx, JobId job) {
  if (tracer_ != nullptr) tracer_->request = job;
  traced(ctx, kArrival,
         [this, job](EngineContext& c) { inner_->on_arrival(c, job); });
  if (arrival_clock_ != nullptr) arrival_clock_->push_back(Clock::now());
}

void ProbeScheduler::on_completion(EngineContext& ctx, JobId job,
                                   MachineId machine) {
  traced(ctx, kCompletion, [this, job, machine](EngineContext& c) {
    inner_->on_completion(c, job, machine);
  });
}

void ProbeScheduler::on_wakeup(EngineContext& ctx) {
  if (wakeups_ == nullptr || tracer_ == nullptr) {
    traced(ctx, kWakeup,
           [this](EngineContext& c) { inner_->on_wakeup(c); });
    return;
  }
  // J_k as MRIS forms it (Alg. 1 line 3), collected before the span opens
  // so the copy is not charged to the scheduler.
  WakeupCapture w;
  const Time gamma = ctx.now();
  for (JobId id : ctx.pending()) {
    const mris::Job& j = ctx.job(id);
    if (j.processing <= gamma) w.items.push_back({j.volume(), j.weight, id});
  }
  w.capacity = static_cast<double>(ctx.num_resources()) *
               static_cast<double>(ctx.num_machines()) * gamma;
  ctx_.committed = &w.committed;
  const std::int64_t t0 = tracer_->now_ns();
  traced(ctx, kWakeup,
         [this](EngineContext& c) { inner_->on_wakeup(c); });
  w.wall_ns = tracer_->now_ns() - t0;
  ctx_.committed = nullptr;
  wakeups_->push_back(std::move(w));
}

void ProbeScheduler::on_machine_down(EngineContext& ctx, MachineId machine) {
  traced(ctx, kDown, [this, machine](EngineContext& c) {
    inner_->on_machine_down(c, machine);
  });
}

void ProbeScheduler::on_machine_up(EngineContext& ctx, MachineId machine) {
  traced(ctx, kUp, [this, machine](EngineContext& c) {
    inner_->on_machine_up(c, machine);
  });
}

void ProbeScheduler::on_retry_ready(EngineContext& ctx, JobId job) {
  traced(ctx, kRetry, [this, job](EngineContext& c) {
    inner_->on_retry_ready(c, job);
  });
}

void ProbeScheduler::on_idle(EngineContext& ctx) {
  traced(ctx, kIdle, [this](EngineContext& c) { inner_->on_idle(c); });
}

// ---- fsync probe -------------------------------------------------------

namespace {
FsyncTotals* g_fsync = nullptr;  // set and cleared by the main thread only
}  // namespace

void set_fsync_probe(FsyncTotals* totals) { g_fsync = totals; }

}  // namespace perfbench

extern "C" int fsync(int fd) {
  perfbench::FsyncTotals* totals = perfbench::g_fsync;
  if (totals == nullptr) return static_cast<int>(::syscall(SYS_fsync, fd));
  char link[64];
  std::snprintf(link, sizeof link, "/proc/self/fd/%d", fd);
  char path[512];
  const ssize_t n = ::readlink(link, path, sizeof path - 1);
  path[n > 0 ? n : 0] = '\0';
  if (totals->tracer != nullptr) totals->tracer->enter(perfbench::Layer::kFsync);
  const auto t0 = perfbench::Clock::now();
  const int rc = static_cast<int>(::syscall(SYS_fsync, fd));
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              perfbench::Clock::now() - t0)
                              .count();
  if (totals->tracer != nullptr) totals->tracer->leave();
  if (std::strstr(path, "admissions.mraj") != nullptr) {
    totals->admission_ns += ns;
  } else if (std::strstr(path, "engine.") != nullptr) {
    totals->recovery_ns += ns;
  } else {
    totals->other_ns += ns;
  }
  return rc;
}

namespace perfbench {

// ---- TimingSink / TimingStreambuf --------------------------------------

void TimingSink::event(const mris::EventRecord& rec) {
  tracer_.enter(Layer::kSink);
  inner_.event(rec);
  tracer_.leave();
}

std::streamsize TimingStreambuf::xsgetn(char* s, std::streamsize n) {
  std::streamsize held = 0;
  if (n > 0 && gptr() < egptr()) {  // the byte underflow() peeked
    *s++ = *gptr();
    gbump(1);
    held = 1;
    --n;
  }
  if (n == 0) return held;
  tracer_.enter(Layer::kRead, span_name_);
  const std::streamsize got = inner_.sgetn(s, n);
  tracer_.leave();
  ++calls;
  if (got > 0) bytes += static_cast<std::uint64_t>(got);
  return held + std::max<std::streamsize>(got, 0);
}

TimingStreambuf::int_type TimingStreambuf::underflow() {
  if (xsgetn(&one_, 1) != 1) return traits_type::eof();
  setg(&one_, &one_, &one_ + 1);
  return traits_type::to_int_type(one_);
}

}  // namespace perfbench
