// Layer passes that run outside every timed run (perfbench/README.md):
// protocol decode, admission-journal appends and the CADP replay.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

/// Feeds each wire stream through a fresh FrameDecoder in 4096-byte
/// chunks (the daemon's read size); returns the median over three passes
/// of the time per decoded frame, and the frame count of one pass.
double decode_us_per_frame(const std::vector<std::string>& wire,
                           std::uint32_t num_resources,
                           std::uint64_t& frames);

struct JournalCost {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::string storage;  ///< filesystem type of the journal's directory
};

/// Appends the instance's first jobs (at most 2000) to a fresh admission
/// journal under `dir`, timing each durable append.
JournalCost journal_append_cost(const mris::Instance& inst,
                                const std::filesystem::path& dir);

/// Reports the sched.mris.* wakeup metrics, then re-solves each captured
/// wakeup's knapsack with solve_cadp and reports the knapsack.cadp.*
/// metrics; a selection that differs from the jobs the wakeup committed
/// is a replay mismatch and fails the run.
void replay_wakeups(const std::vector<WakeupCapture>& wakeups, double eps,
                    Report& report);

}  // namespace perfbench
