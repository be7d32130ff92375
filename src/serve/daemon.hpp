// Scheduler-as-a-service driver (docs/DAEMON.md).
//
// serve_stream() is the daemon's core loop, transport-agnostic over a
// std::istream of protocol frames (serve/protocol.hpp): decode a frame,
// advance the engine to the admission point (StreamEngine::
// run_until_release), durably journal the admission (write-ahead,
// serve/admission_journal.hpp), admit, and stream every resulting
// EventRecord to the configured sink.  Memory stays bounded by the live
// backlog: the engine prunes committed calendar history on the prune_every
// cadence, the sink buffers nothing, and the decoder holds at most one
// frame.
//
// Restartability composes the engine's whole-engine snapshots + event
// journal (docs/RECOVERY.md) with the admission journal:
//
//   resume = read admission journal
//          -> rebuild the instance prefix recorded inside the snapshot
//             (peek_snapshot_jobs) and restore the engine at its cut
//          -> feed the event-journal prefix through the sink (pre-cut
//             history; the engine replays and cross-checks the tail, which
//             re-fires the sink via RunOptions::on_record)
//          -> re-admit the admission-journal tail
//          -> continue with the live stream.
//
// The producer replays its stream from seq 0 after a daemon restart; the
// daemon verifies already-journaled frames bit-for-bit against the
// admission journal (divergent replay is a ProtocolError) and admits only
// from the first new frame on.  End to end, a kill -9'd and resumed daemon
// produces byte-identical sink output and placement checksum to an
// uninterrupted run — the crash-recovery test asserts exactly this.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/sink.hpp"
#include "sim/engine.hpp"

namespace mris::serve {

struct ServeOptions {
  int num_machines = 4;
  int num_resources = 2;

  /// Scheduler factory — the daemon builds (and on resume, restores) its
  /// scheduler through this, so serve depends only on the OnlineScheduler
  /// interface, not on any concrete scheduler or on exp's spec parsing.
  std::function<std::unique_ptr<OnlineScheduler>()> make_scheduler;

  /// Per-decision metric sink (not owned; may be nullptr for none).
  MetricsSink* sink = nullptr;

  /// Engine calendar prune cadence (RunOptions::prune_every).
  int prune_every = 32;

  /// State directory for durability; empty disables snapshots, both
  /// journals, and resume.  Layout: engine.snap, engine.journal,
  /// admissions.mraj.
  std::string state_dir;

  /// Forwarded to RecoveryOptions (docs/RECOVERY.md).
  std::uint64_t snapshot_every = 0;
  bool snapshot_at_wakeups = true;

  /// Resume from state_dir if it holds a valid prior run; fresh otherwise.
  bool resume = false;

  /// Fired after every LIVE admission (journaled + admitted; not for
  /// restored/re-admitted/deduped jobs) with the all-time admitted count.
  /// The kill -9 crash harness hangs _exit() off this to die mid-stream.
  std::function<void(std::uint64_t jobs_admitted)> on_admit;
};

/// Wall-clock decision-latency summary: one sample per live admission,
/// covering run_until_release + journal append + admit.  This is service
/// time from decode to admit; the time a frame spends in the transport
/// before it is decoded is not in it (end-to-end admit latency is the
/// producer's send-to-on_admit span, which perfbench measures).
struct LatencySummary {
  std::uint64_t samples = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct ServeResult {
  RunResult run;
  std::uint64_t frames = 0;          ///< protocol frames decoded (live)
  std::uint64_t jobs = 0;            ///< total jobs admitted (all-time)
  std::uint64_t placement_checksum = 0;  ///< PlacementChecksum over commits
  bool resumed_from_snapshot = false;
  std::uint64_t resume_restored = 0;    ///< jobs restored inside the snapshot
  std::uint64_t resume_readmitted = 0;  ///< admission-journal tail re-admits
  std::uint64_t replay_deduped = 0;     ///< live frames verified + skipped
  LatencySummary latency;
};

/// The admission journal's config fingerprint: refuses to resume a journal
/// into a daemon with a different cluster shape or scheduler.
std::uint64_t config_fingerprint(int num_machines, int num_resources,
                                 const std::string& scheduler_name);

/// The admitted-job count a streaming snapshot's payload was cut at (the
/// u64 prefix StreamEngine writes), or 0 when the snapshot is missing or
/// invalid (the daemon then resumes journal-only, re-admitting everything).
std::uint64_t peek_snapshot_jobs(const std::string& snapshot_path);

/// Runs the daemon loop over `in` until End-of-stream, then drains the
/// engine.  Throws ProtocolError on malformed input (nothing from the bad
/// frame onward is admitted), std::runtime_error on IO/config failures.
ServeResult serve_stream(std::istream& in, const ServeOptions& options);

}  // namespace mris::serve
