#include "passes.hpp"

#include <algorithm>
#include <string_view>

#include "knapsack/knapsack.hpp"
#include "serve/admission_journal.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

double decode_us_per_frame(const std::vector<std::string>& wire,
                           std::uint32_t num_resources,
                           std::uint64_t& frames) {
  std::vector<double> per_frame;
  for (int rep = 0; rep < 3; ++rep) {
    frames = 0;
    const auto t0 = Clock::now();
    for (const std::string& bytes : wire) {
      mris::serve::FrameDecoder decoder(num_resources);
      mris::serve::Frame frame;
      for (std::size_t off = 0; off < bytes.size(); off += 4096) {
        decoder.feed(std::string_view(bytes).substr(off, 4096));
        while (decoder.next(frame)) ++frames;
      }
      decoder.finish();
    }
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    per_frame.push_back(frames > 0 ? us / static_cast<double>(frames) : 0.0);
  }
  return median(per_frame);
}

JournalCost journal_append_cost(const mris::Instance& inst,
                                const std::filesystem::path& dir) {
  const std::filesystem::path pass_dir = dir / "journal_pass";
  std::error_code ec;
  std::filesystem::remove_all(pass_dir, ec);
  std::filesystem::create_directories(pass_dir, ec);
  JournalCost cost;
  cost.storage = filesystem_type(pass_dir.string());
  const std::size_t n = std::min<std::size_t>(inst.num_jobs(), 2000);
  std::vector<double> us;
  us.reserve(n);
  {
    mris::serve::AdmissionJournalWriter writer;
    writer.open_fresh((pass_dir / "admissions.mraj").string(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      writer.append(i, inst.jobs()[i]);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    writer.close();
  }
  std::filesystem::remove_all(pass_dir, ec);
  cost.p50_us = quantile(us, 0.5);
  cost.p99_us = quantile(us, 0.99);
  return cost;
}

void replay_wakeups(const std::vector<WakeupCapture>& wakeups, double eps,
                    Report& report) {
  std::vector<double> wall;
  double jk_max = 0.0;
  for (const WakeupCapture& w : wakeups) {
    wall.push_back(static_cast<double>(w.wall_ns) / 1e6);
    jk_max = std::max(jk_max, static_cast<double>(w.items.size()));
  }
  report.set("sched.mris.wakeups", static_cast<double>(wall.size()), "count");
  report.set("sched.mris.wakeup_ms_p50", quantile(wall, 0.5), "ms");
  report.set("sched.mris.wakeup_ms_max", wall.empty() ? 0.0 : wall.back(),
             "ms");
  report.set("sched.mris.jk_items_max", jk_max, "count");

  double solves = 0.0, ms_total = 0.0, ms_max = 0.0, items_max = 0.0;
  double cells = 0.0, mismatches = 0.0;
  for (const WakeupCapture& w : wakeups) {
    if (w.items.empty()) continue;  // MRIS solves nothing for an empty J_k
    const auto t0 = Clock::now();
    const mris::knapsack::Selection sel =
        mris::knapsack::solve_cadp(w.items, w.capacity, eps);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    solves += 1.0;
    ms_total += ms;
    ms_max = std::max(ms_max, ms);
    const double n = static_cast<double>(w.items.size());
    items_max = std::max(items_max, n);
    cells += n * n / eps;
    std::vector<std::int32_t> chosen = sel.tags;
    std::vector<std::int32_t> committed = w.committed;
    std::sort(chosen.begin(), chosen.end());
    std::sort(committed.begin(), committed.end());
    if (chosen != committed) mismatches += 1.0;
  }
  report.set("knapsack.cadp.solves", solves, "count");
  report.set("knapsack.cadp.ms_total", ms_total, "ms");
  report.set("knapsack.cadp.ms_max", ms_max, "ms");
  report.set("knapsack.cadp.items_max", items_max, "count");
  report.set("knapsack.cadp.dp_cells", cells, "cells");
  report.set("knapsack.cadp.replay_mismatches", mismatches, "count");
  report.gate(mismatches == 0.0,
              "CADP replay selected other jobs than MRIS committed");
}

}  // namespace perfbench
