#include "serve/daemon.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <istream>
#include <stdexcept>
#include <vector>

#include "serve/admission_journal.hpp"
#include "serve/protocol.hpp"
#include "sim/recovery/journal.hpp"
#include "sim/recovery/snapshot.hpp"
#include "sim/recovery/state_io.hpp"

namespace mris::serve {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Replayed frames must match what was journaled bit-for-bit — a producer
/// that "replays" different job parameters is feeding a different workload,
/// and silently admitting it would fork history.
bool same_job(const Job& a, const Job& b) {
  if (!same_bits(a.release, b.release) ||
      !same_bits(a.processing, b.processing) ||
      !same_bits(a.weight, b.weight) || a.tenant != b.tenant ||
      a.demand.size() != b.demand.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.demand.size(); ++i) {
    if (!same_bits(a.demand[i], b.demand[i])) return false;
  }
  return true;
}

LatencySummary summarize(std::vector<double>& us) {
  LatencySummary s;
  s.samples = us.size();
  if (us.empty()) return s;
  double sum = 0.0;
  for (double v : us) sum += v;
  s.mean_us = sum / static_cast<double>(us.size());
  std::sort(us.begin(), us.end());
  const auto pct = [&us](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(us.size() - 1) + 0.5);
    return us[i];
  };
  s.p50_us = pct(0.50);
  s.p99_us = pct(0.99);
  s.max_us = us.back();
  return s;
}

}  // namespace

std::uint64_t config_fingerprint(int num_machines, int num_resources,
                                 const std::string& scheduler_name) {
  recovery::Fingerprint fp;
  fp.mix("mris-serve-config-v1");
  fp.mix(static_cast<std::uint64_t>(num_machines));
  fp.mix(static_cast<std::uint64_t>(num_resources));
  fp.mix(scheduler_name);
  return fp.value();
}

std::uint64_t peek_snapshot_jobs(const std::string& snapshot_path) {
  const recovery::SnapshotContents snap =
      recovery::read_snapshot(snapshot_path);
  if (!snap.ok || snap.payload.size() < 8) return 0;
  recovery::StateReader r(std::string_view(snap.payload).substr(0, 8));
  return r.u64();
}

ServeResult serve_stream(std::istream& in, const ServeOptions& options) {
  if (!options.make_scheduler) {
    throw std::invalid_argument("serve_stream: make_scheduler is required");
  }
  if (options.num_machines < 1 || options.num_resources < 1) {
    throw std::invalid_argument(
        "serve_stream: need at least one machine and one resource");
  }

  const std::unique_ptr<OnlineScheduler> scheduler = options.make_scheduler();
  const std::uint64_t cfg_fp = config_fingerprint(
      options.num_machines, options.num_resources, scheduler->name());

  const bool durable = !options.state_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    if (ec) {
      throw std::runtime_error("serve_stream: cannot create state dir " +
                               options.state_dir + ": " + ec.message());
    }
  }
  const std::string snap_path = options.state_dir + "/engine.snap";
  const std::string journal_path = options.state_dir + "/engine.journal";
  const std::string admit_path = options.state_dir + "/admissions.mraj";

  // ---- Resume scouting (before any engine state exists) ----------------
  AdmissionLog admitted;  // !ok means fresh start
  std::uint64_t restored_jobs = 0;
  std::uint64_t journal_cut = 0;  // event-journal records inside the snapshot
  bool resuming = false;
  if (durable && options.resume) {
    admitted = read_admission_journal(admit_path);
    if (admitted.ok) {
      if (admitted.fingerprint != cfg_fp) {
        throw std::runtime_error(
            "serve_stream: admission journal was written by a daemon with a "
            "different configuration (machines/resources/scheduler)");
      }
      resuming = true;
      const recovery::SnapshotContents snap = recovery::read_snapshot(snap_path);
      if (snap.ok) {
        restored_jobs = peek_snapshot_jobs(snap_path);
        journal_cut = snap.meta.journal_records;
      }
      if (restored_jobs > admitted.records.size()) {
        throw std::runtime_error(
            "serve_stream: snapshot holds more admissions than the admission "
            "journal — the write-ahead invariant was violated");
      }
    }
  }

  // ---- Engine assembly -------------------------------------------------
  ServeResult result;
  PlacementChecksum checksum;
  const auto deliver = [&](const EventRecord& rec) {
    if (rec.kind == EventRecord::Kind::kCommit) {
      checksum.note(rec.job, rec.machine, rec.start);
    }
    if (options.sink != nullptr) options.sink->event(rec);
  };

  recovery::RecoveryOptions rec_opts;
  rec_opts.snapshot_path = snap_path;
  rec_opts.journal_path = journal_path;
  rec_opts.snapshot_every = options.snapshot_every;
  rec_opts.snapshot_at_wakeups = options.snapshot_at_wakeups;
  rec_opts.resume = resuming;

  RunOptions run_opts;
  run_opts.prune_every = options.prune_every;
  run_opts.on_record = deliver;
  if (durable) run_opts.recovery = &rec_opts;

  // The growing job store.  On snapshot resume it must hold exactly the
  // prefix the snapshot was cut at (the engine validates the count).
  Instance inst(std::vector<Job>{}, options.num_machines,
                options.num_resources);
  for (std::uint64_t i = 0; i < restored_jobs; ++i) {
    inst.append(admitted.records[i].job);
  }

  StreamEngine engine(inst, *scheduler, run_opts);
  engine.start();
  result.resumed_from_snapshot = engine.resumed_from_snapshot();
  if (resuming && !result.resumed_from_snapshot && restored_jobs > 0) {
    // The scout accepted a snapshot the engine then refused — the instance
    // prefix no longer matches an empty-start engine, so fail loudly
    // rather than admit against divergent state.
    throw std::runtime_error(
        "serve_stream: engine rejected the snapshot the resume scout "
        "accepted; state directory is inconsistent");
  }
  if (result.resumed_from_snapshot) {
    result.resume_restored = restored_jobs;
    // Pre-cut history for the sink/checksum: the engine replays (and
    // re-fires on_record for) only the journal tail beyond the snapshot
    // cut, so the prefix comes from the event journal itself.
    const recovery::JournalContents events =
        recovery::read_journal(journal_path);
    const std::uint64_t cut =
        std::min<std::uint64_t>(journal_cut, events.records.size());
    for (std::uint64_t i = 0; i < cut; ++i) deliver(events.records[i]);
  }

  // ---- Admission journal writer + tail re-admission --------------------
  AdmissionJournalWriter admit_log;
  if (durable) {
    if (resuming) {
      if (admitted.torn_bytes > 0) {
        truncate_admission_journal(admit_path, admitted.valid_bytes);
      }
      admit_log.open_append(admit_path);
    } else {
      admit_log.open_fresh(admit_path, cfg_fp);
    }
  }
  for (std::uint64_t i = restored_jobs; resuming && i < admitted.records.size();
       ++i) {
    const AdmissionRecord& rec = admitted.records[i];
    engine.run_until_release(rec.job.release);
    engine.admit(rec.job);
    ++result.resume_readmitted;
  }

  // ---- Live loop -------------------------------------------------------
  // Decision latency is operator telemetry only: it lands in ServeResult,
  // never in sink output or placements, so the wall-clock read cannot
  // leak into anything byte-compared.
  // mris-lint: allow(determinism-time)
  using Clock = std::chrono::steady_clock;
  std::vector<double> latency_us;
  const std::uint64_t already = resuming ? admitted.records.size() : 0;
  FrameDecoder decoder(static_cast<std::uint32_t>(options.num_resources));
  Frame frame;
  char buf[4096];
  while (!decoder.saw_end()) {
    // Frame-exact reads: take whatever the transport already holds (a
    // whole 4096-byte chunk from an in-memory stream, what has arrived on
    // a buffered pipe); only when nothing is there, block for exactly the
    // bytes the pending frame still misses — never for a later frame's.
    std::streamsize got = in.readsome(buf, sizeof buf);
    if (got == 0 && in.good()) {
      // About to block.  At a frame boundary that is genuine idle time,
      // free for the scheduler (MRIS pre-solves the armed interval's
      // knapsack here); while frames are backed up the transport reports
      // bytes and this is skipped.
      if (decoder.buffered() == 0) engine.idle();
      in.read(buf, static_cast<std::streamsize>(
                       std::min(decoder.bytes_needed(), sizeof buf)));
      got = in.gcount();
    }
    if (got <= 0) break;  // EOF: finish() names the truncation
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(got)));
    while (decoder.next(frame)) {
      ++result.frames;
      if (frame.kind != kFrameJob) continue;  // Hello/End carry no admission
      if (frame.job.seq < already) {
        // Producer replay of an already-journaled admission: verify, skip.
        const AdmissionRecord& prev = admitted.records[frame.job.seq];
        if (!same_job(frame.job.job, prev.job)) {
          throw ProtocolError(
              "replayed frame seq " + std::to_string(frame.job.seq) +
              " does not match the admission journal (divergent replay)");
        }
        ++result.replay_deduped;
        continue;
      }
      const auto t0 = Clock::now();
      engine.run_until_release(frame.job.job.release);
      if (durable) admit_log.append(frame.job.seq, frame.job.job);
      engine.admit(frame.job.job);
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (options.on_admit) options.on_admit(inst.num_jobs());
    }
  }
  decoder.finish();

  result.run = engine.finish();
  admit_log.close();
  if (options.sink != nullptr) options.sink->flush();
  result.jobs = inst.num_jobs();
  result.placement_checksum = checksum.value();
  result.latency = summarize(latency_us);
  return result;
}

}  // namespace mris::serve
