#include "sched/mris.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/recovery/state_io.hpp"

#include "sched/pq.hpp"

namespace mris {

MrisScheduler::MrisScheduler(MrisConfig config) : config_(config) {
  if (!(config_.alpha > 1.0)) {
    throw std::invalid_argument("MRIS: alpha must be > 1");
  }
  if (!(config_.eps > 0.0) || !(config_.eps < 1.0)) {
    throw std::invalid_argument("MRIS: eps must lie in (0, 1)");
  }
  if (!(config_.gamma0 > 0.0)) {
    throw std::invalid_argument("MRIS: gamma0 must be > 0");
  }
}

std::string MrisScheduler::name() const {
  std::string n = "MRIS(" + heuristic_name(config_.heuristic) + "," +
                  knapsack::backend_name(config_.backend);
  if (!config_.backfill) n += ",nobf";
  if (config_.subroutine == MrisConfig::Subroutine::kEventScan) {
    n += ",evscan";
  }
  if (config_.incremental) n += ",inc";
  return n + ")";
}

double MrisScheduler::gamma(std::size_t k) const {
  // Each gamma_k is cached as the exact gamma0 * alpha^k value (not an
  // iterated product, which would drift ulps from the uncached formula).
  while (gammas_.size() <= k) {
    gammas_.push_back(
        config_.gamma0 *
        std::pow(config_.alpha, static_cast<double>(gammas_.size())));
  }
  return gammas_[k];
}

void MrisScheduler::arm(EngineContext& ctx, Time t) {
  while (gamma(k_) < t) ++k_;
  ctx.schedule_wakeup(gamma(k_));
  armed_ = true;
}

void MrisScheduler::on_start(EngineContext& ctx) { arm(ctx, 0.0); }

void MrisScheduler::on_arrival(EngineContext& ctx, JobId /*job*/) {
  // If wakeups went quiet (no pending work at the last gamma_k), resume the
  // geometric series at the first boundary not before now.
  if (!armed_) arm(ctx, ctx.now());
  if (config_.incremental && config_.backend == knapsack::Backend::kCadp) {
    inc_.note_arrival(ctx.pending().size(), config_.eps);
  }
}

void MrisScheduler::build_candidates(EngineContext& ctx, double gamma_k) {
  // J_k: released, unscheduled jobs with p_j <= gamma_k (Alg. 1 line 3).
  // Everything in pending() already has r_j <= now.
  // Under checkpoint/partial-restart, ctx.job() is the *effective* view: a
  // resumed job's processing (and hence volume v_j = p_j * u_j) is its
  // residual work plus restore overhead, so both the interval
  // classification and the knapsack sizing are residual-aware without any
  // scheduler-side special-casing.
  candidates_.clear();
  items_.clear();
  for (JobId id : ctx.pending()) {
    const Job& j = ctx.job(id);
    if (j.processing <= gamma_k) {
      candidates_.push_back(id);
      items_.push_back({j.volume(), j.weight, id});
    }
  }
}

void MrisScheduler::on_idle(EngineContext& ctx) {
  // Streaming-only hook: speculatively solve the armed wakeup's knapsack
  // while the daemon waits for the next admission frame (it fires at a
  // frame boundary, just before the read loop blocks on an empty
  // transport).  A repeat call with no admission in between finds the
  // memo matching and solves nothing.  Touches only the
  // per-wakeup scratch vectors (cleared at every wakeup) and the inc_ memo
  // (a pure cache), so observable decisions are unchanged — if an arrival
  // lands before gamma_k fires, the memo simply misses and the wakeup
  // falls back to a from-scratch solve.
  if (!config_.incremental || config_.backend != knapsack::Backend::kCadp) {
    return;
  }
  if (!armed_) return;
  const double gamma_k = gamma(k_);
  build_candidates(ctx, gamma_k);
  if (items_.empty()) return;
  const double zeta = static_cast<double>(ctx.num_resources()) *
                      static_cast<double>(ctx.num_machines()) * gamma_k;
  inc_.prepare(items_, zeta, config_.eps);
}

void MrisScheduler::on_wakeup(EngineContext& ctx) {
  const double gamma_k = gamma(k_);
  ++k_;

  build_candidates(ctx, gamma_k);

  if (!candidates_.empty()) {
    ++stats_.iterations;
    stats_.knapsack_items += items_.size();

    // zeta_k = R * M * gamma_k (Alg. 1 line 4).
    const double zeta =
        static_cast<double>(ctx.num_resources()) *
        static_cast<double>(ctx.num_machines()) * gamma_k;
    const bool use_inc =
        config_.incremental && config_.backend == knapsack::Backend::kCadp;
    const knapsack::Selection sel =
        use_inc ? inc_.solve(items_, zeta, config_.eps)
                : knapsack::solve_constraint_approx(config_.backend, items_,
                                                    zeta, config_.eps);

    if (!sel.tags.empty()) {
      stats_.max_interval_volume =
          std::max(stats_.max_interval_volume, sel.total_size / zeta);
      stats_.jobs_scheduled += sel.tags.size();

      const Time not_before =
          config_.backfill ? ctx.now() : std::max(ctx.now(), frontier_);
      batch_.assign(sel.tags.begin(), sel.tags.end());
      const auto subroutine =
          config_.subroutine == MrisConfig::Subroutine::kEventScan
              ? offline_pq_schedule_eventscan
              : offline_pq_schedule;
      const Time end = subroutine(
          batch_, config_.heuristic, not_before,
          [&ctx](JobId id) -> const Job& { return ctx.job(id); },
          [&ctx](JobId id, Time t, MachineId& m) {
            // Retry-gated jobs (fault requeues) may not start before their
            // backoff gate; fault-free runs have earliest_start == now <= t.
            return ctx.earliest_fit(id, std::max(t, ctx.earliest_start(id)),
                                    m);
          },
          [&ctx](JobId id, MachineId m, Time s) {
            // try_commit: a job that loses a placement race with a fault
            // stays pending and is re-selected at the next interval.
            ctx.try_commit(id, m, s);
          });
      frontier_ = std::max(frontier_, end);
    }
  }

  if (!ctx.pending().empty()) {
    arm(ctx, ctx.now());
  } else {
    armed_ = false;
  }
}

void MrisScheduler::save_state(recovery::StateWriter& w) const {
  w.u64(stats_.iterations);
  w.u64(stats_.knapsack_items);
  w.u64(stats_.jobs_scheduled);
  w.f64(stats_.max_interval_volume);
  w.u64(k_);
  w.u8(armed_ ? 1 : 0);
  w.f64(frontier_);
}

void MrisScheduler::restore_state(recovery::StateReader& r) {
  stats_.iterations = r.u64();
  stats_.knapsack_items = r.u64();
  stats_.jobs_scheduled = r.u64();
  stats_.max_interval_volume = r.f64();
  k_ = r.u64();
  armed_ = r.u8() != 0;
  frontier_ = r.f64();
  inc_.invalidate();  // the memo is a pure cache; start cold after restore
}

}  // namespace mris
