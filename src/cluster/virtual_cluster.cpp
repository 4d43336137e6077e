#include "cluster/virtual_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/span_tracer.hpp"
#include "tensor/kernels.hpp"

namespace swt {

double Trace::total_ckpt_overhead() const noexcept {
  // Overhead as experienced by the workers: charged writes, reads, stalls.
  double t = 0.0;
  for (const auto& r : records)
    t += r.ckpt_read_cost + r.ckpt_read_wait + r.ckpt_write_charged;
  return t;
}

prof::EvalSpan eval_phases(const EvalRecord& rec) {
  prof::EvalSpan s;
  s.id = rec.id;
  s.parent_id = rec.tensors_transferred > 0 ? rec.parent_id : -1;
  s.worker = rec.worker;
  s.start = rec.virtual_start;
  s.finish = rec.virtual_finish;
  s.ready_at = std::max(rec.virtual_finish, rec.ckpt_available_at);
  s.stall = rec.ckpt_read_wait;
  s.ckpt_read = rec.ckpt_read_cost;
  s.ckpt_write = rec.ckpt_write_charged;
  s.ckpt_retry = rec.retry_seconds;
  // The stall and the read lead, the write charge and the retries trail
  // (only their total is known); the compute window between them is split
  // into a transfer head (the measured mechanism wall time, an
  // approximation in scaled/fixed-time runs) and the training remainder.
  const double compute_start = rec.virtual_start + s.stall + s.ckpt_read;
  const double compute = std::max(
      0.0, (rec.virtual_finish - compute_start) - s.ckpt_write - s.ckpt_retry);
  s.transfer = std::min(rec.transfer_seconds, compute);
  s.train = compute - s.transfer;
  return s;
}

namespace {

/// A dispatched attempt, due at its record's virtual_finish.
struct InFlight {
  EvalRecord record;
  bool crashed = false;  ///< event is a worker crash, not a completion
  Proposal proposal;     ///< kept for resubmission of crashed attempts
  bool operator>(const InFlight& other) const noexcept {
    return record.virtual_finish > other.record.virtual_finish;
  }
};

struct Resubmit {
  long id;
  Proposal proposal;
  int attempt;
};

constexpr double kUsPerS = 1e6;

/// Everything `run_search` reports about a search, one method per lifecycle
/// fact.  It is the scheduler's only link to the span tracer (one virtual
/// timeline track per worker), the event bus, the metrics registry and the
/// online quality telemetry, and it owns the state that exists only for
/// them.  Every method runs on the scheduler thread in scheduler order,
/// so what it emits is identical at every eval_parallelism.
class SearchTelemetry {
 public:
  /// The run started.
  SearchTelemetry(long n_evals, int num_workers) {
    if (tracer_.enabled()) {
      tracer_.name_process(kTraceVirtualPid, "virtual cluster (virtual time)");
      tracer_.name_process(kTraceWallPid, "process (wall time)");
      for (int w = 0; w < num_workers; ++w)
        tracer_.name_track(kTraceVirtualPid, w, "worker " + std::to_string(w));
    }
    bus_.emit(EventType::kRunStarted, 0.0, -1, -1,
              {{"n_evals", std::to_string(n_evals)},
               {"workers", std::to_string(num_workers)}});
    // Quality statistics cost O(completed evals) per completion (the
    // incremental Kendall scan); skip them when nothing consumes them.
    quality_on_ = live_metrics_ || bus_.enabled();
  }

  /// Attempt `attempt` of `id` was handed to idle worker `w`; `fresh` marks
  /// a new proposal (a resubmission reuses its id).
  void dispatched(double clock, int w, long id, int attempt, bool fresh) {
    if (fresh) {
      ++submitted_;
      bus_.emit(EventType::kEvalSubmitted, clock, -1, id);
    }
    if (bus_.enabled())
      bus_.emit(EventType::kEvalStarted, clock, w, id,
                {{"attempt", std::to_string(attempt)}});
  }

  /// A dispatched attempt will complete after occupying its worker for
  /// `seconds` of virtual time.
  void scheduled(double seconds) { busy_seconds_ += seconds; }

  /// `rec` crashed at its virtual_finish, destroying `lost_s` of compute;
  /// its worker recovers for `recovery_s`.  The search may end before the
  /// recovery does, so the fault's worker time is booked (and its spans
  /// emitted) by run_finished, clipped at the makespan.
  void crashed(const EvalRecord& rec, double lost_s, double recovery_s) {
    const double crash_at = rec.virtual_finish;
    crashes_.push_back({rec.id, rec.attempt, rec.worker, rec.virtual_start, crash_at,
                        crash_at + recovery_s});
    if (bus_.enabled()) {
      bus_.emit(EventType::kWorkerCrashed, crash_at, rec.worker, rec.id,
                {{"attempt", std::to_string(rec.attempt)}, {"lost_s", json_number(lost_s)}});
      // The recovery end is known now; emitted eagerly with its virtual
      // timestamp, so the stream stays strictly append-only.
      bus_.emit(EventType::kWorkerRecovered, crash_at + recovery_s, rec.worker);
    }
  }

  /// The clock moved to the next in-flight event; `in_flight` events remain.
  void clock_advanced(double clock, std::size_t in_flight) {
    clock_ = clock;
    in_flight_ = in_flight;
    if (live_metrics_)
      metrics().gauge("cluster.queue_depth").set(static_cast<double>(in_flight + 1));
    if (tracer_.enabled())
      tracer_.counter("in_flight", kTraceVirtualPid, clock * kUsPerS,
                      static_cast<double>(in_flight));
  }

  /// A crashed attempt of `id` was resubmitted as `next_attempt`, or lost
  /// for good when `resubmitted` is false.
  void crash_resolved(long id, int next_attempt, bool resubmitted) {
    if (live_metrics_) {
      metrics().counter("cluster.crashes_total").add(1);
      metrics()
          .counter(resubmitted ? "cluster.resubmissions_total"
                               : "cluster.lost_evaluations_total")
          .add(1);
    }
    if (resubmitted)
      bus_.emit(EventType::kResubmission, clock_, -1, id,
                {{"attempt", std::to_string(next_attempt)}});
    else
      ++finished_;
    publish_progress();
  }

  /// `r` completed and was reported to the strategy.
  void completed(const EvalRecord& r) {
    if (live_metrics_ && r.transfer_fallback)
      metrics().counter("cluster.transfer_fallbacks_total").add(1);
    if (tracer_.enabled()) eval_spans(r);
    if (bus_.enabled()) {
      bus_.emit(EventType::kEvalFinished, r.virtual_finish, r.worker, r.id,
                {{"score", json_number(r.score)}, {"attempt", std::to_string(r.attempt)}});
      if (r.tensors_transferred > 0)
        bus_.emit(EventType::kTransferHit, r.virtual_finish, r.worker, r.id,
                  {{"parent", std::to_string(r.parent_id)},
                   {"tensors", std::to_string(r.tensors_transferred)},
                   {"values", std::to_string(r.values_transferred)}});
      if (r.transfer_fallback)
        bus_.emit(EventType::kTransferFallback, r.virtual_finish, r.worker, r.id);
    }
    if (quality_on_ &&
        quality_.observe(QualityObservation{r.id, r.parent_id, r.tensors_transferred > 0,
                                            r.transfer_fallback, r.first_epoch_score,
                                            r.score}))
      bus_.emit(EventType::kBestScoreImproved, r.virtual_finish, r.worker, r.id,
                {{"score", json_number(r.score)},
                 {"evals_seen", std::to_string(quality_.evals_seen())}});
    ++finished_;
    if (live_metrics_) metrics().counter("cluster.evals_completed_total").add(1);
    publish_progress();
  }

  /// The search ended with `trace`.
  void run_finished(const Trace& trace) {
    const double end = trace.makespan;
    for (const Crash& c : crashes_) {
      const double crash_at = std::min(c.crash_at, end);
      const double recovered = std::min(c.recovered_at, end);
      busy_seconds_ += std::max(0.0, crash_at - c.start);
      recovery_seconds_ += std::max(0.0, recovered - crash_at);
      if (!tracer_.enabled()) continue;
      if (crash_at > c.start)
        tracer_.complete("crash (eval " + std::to_string(c.id) + ")", "fault",
                         kTraceVirtualPid, c.worker, c.start * kUsPerS,
                         (crash_at - c.start) * kUsPerS,
                         {{"attempt", std::to_string(c.attempt)}});
      if (recovered > crash_at)
        tracer_.complete("recovery", "fault", kTraceVirtualPid, c.worker,
                         crash_at * kUsPerS, (recovered - crash_at) * kUsPerS);
    }
    if (live_metrics_) {
      MetricsRegistry& m = metrics();
      const double wall = trace.makespan * trace.num_workers;
      m.gauge("cluster.worker_busy_seconds").add(busy_seconds_);
      m.gauge("cluster.worker_recovery_seconds").add(recovery_seconds_);
      m.gauge("cluster.worker_idle_seconds")
          .add(std::max(0.0, wall - busy_seconds_ - recovery_seconds_));
    }
    bus_.emit(EventType::kRunFinished, trace.makespan, -1, -1,
              {{"evals", std::to_string(trace.records.size())},
               {"crashes", std::to_string(trace.crashed_attempts)},
               {"resubmissions", std::to_string(trace.resubmissions)},
               {"lost", std::to_string(trace.lost_evaluations)},
               {"transfer_fallbacks", std::to_string(trace.transfer_fallbacks)},
               {"makespan", json_number(trace.makespan)},
               {"best_score", json_number(quality_.best_score())},
               {"transfer_hit_rate", json_number(quality_.transfer_hit_rate())},
               {"mean_lineage_depth", json_number(quality_.mean_lineage_depth())},
               {"kendall_tau_early_final", json_number(quality_.early_final_tau())}});
  }

 private:
  /// One completed evaluation as a worker-track "eval" span with a child
  /// span per eval_phases component, in virtual microseconds.
  void eval_spans(const EvalRecord& rec) {
    tracer_.complete("eval " + std::to_string(rec.id), "eval", kTraceVirtualPid, rec.worker,
                     rec.virtual_start * kUsPerS,
                     (rec.virtual_finish - rec.virtual_start) * kUsPerS,
                     {{"id", std::to_string(rec.id)},
                      {"parent", std::to_string(rec.parent_id)},
                      {"attempt", std::to_string(rec.attempt)},
                      {"score", json_number(rec.score)}});
    const prof::EvalSpan phases = eval_phases(rec);
    double t = rec.virtual_start;
    const auto child = [&](const char* name, const char* cat, double seconds) {
      if (seconds <= 0.0) return;
      tracer_.complete(name, cat, kTraceVirtualPid, rec.worker, t * kUsPerS,
                       seconds * kUsPerS);
      t += seconds;
    };
    child("ckpt stall", "idle", phases.stall);
    child("ckpt read", "checkpoint", phases.ckpt_read);
    child("transfer", "transfer", phases.transfer);
    child("train", "train", phases.train);
    child("ckpt write", "checkpoint", phases.ckpt_write);
    child("ckpt retry", "checkpoint", phases.ckpt_retry);
  }

  /// The search.* gauges give scrapers and the sampler a consistent live
  /// view, including the virtual clock (which nothing else reads back).
  void publish_progress() const {
    if (!live_metrics_) return;
    MetricsRegistry& m = metrics();
    m.gauge("search.virtual_time_seconds").set(clock_);
    m.gauge("search.evals_completed").set(static_cast<double>(finished_));
    m.gauge("search.evals_submitted").set(static_cast<double>(submitted_));
    m.gauge("search.evals_in_flight").set(static_cast<double>(in_flight_));
  }

  SpanTracer& tracer_ = SpanTracer::global();
  EventBus& bus_ = EventBus::global();
  const bool live_metrics_ = metrics_enabled();
  bool quality_on_ = false;
  QualityTelemetry quality_;
  /// A crashed attempt's worker occupancy: the lost work, then recovery.
  struct Crash {
    long id;
    int attempt, worker;
    double start, crash_at, recovered_at;
  };
  std::vector<Crash> crashes_;
  double busy_seconds_ = 0.0;      // worker-seconds spent on attempts
  double recovery_seconds_ = 0.0;  // worker-seconds lost to crash recovery
  // The live-progress view: virtual clock, events left in flight, fresh
  // proposals issued, completed plus permanently lost evaluations.
  double clock_ = 0.0;
  std::size_t in_flight_ = 0;
  long submitted_ = 0;
  long finished_ = 0;
};

}  // namespace

Trace run_search(Evaluator& evaluator, SearchStrategy& strategy, long n_evals,
                 const ClusterConfig& cfg, Rng& rng) {
  if (cfg.num_workers <= 0) throw std::invalid_argument("run_search: need >= 1 worker");
  if (cfg.eval_parallelism <= 0)
    throw std::invalid_argument("run_search: eval_parallelism must be >= 1");
  const FaultModel fault_model(cfg.faults);
  const FaultModel* faults = fault_model.enabled() ? &fault_model : nullptr;
  const int max_attempts = std::max(1, cfg.faults.max_attempts);

  Trace trace;
  trace.num_workers = cfg.num_workers;
  trace.records.reserve(static_cast<std::size_t>(n_evals));
  SearchTelemetry telemetry(n_evals, cfg.num_workers);

  std::vector<double> worker_free(static_cast<std::size_t>(cfg.num_workers), 0.0);
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> in_flight;
  std::deque<Resubmit> resubmit;                       // crashed, awaiting retry
  std::unordered_map<long, double> ckpt_available_at;  // by evaluation id
  double clock = 0.0;
  long submitted = 0;  // fresh proposals issued (resubmissions reuse their id)
  long finished = 0;   // completed records + permanently lost evaluations
  // One-shot wall-clock stall (see FaultConfig::stall_after_evals): freezes
  // the scheduler thread in real time so the watchdog sees no progress, but
  // leaves the virtual timeline untouched.
  bool stall_fired = false;

  // Where a wavefront trains.  The evaluations handed out at one virtual
  // instant are mutually independent (a parent must be *reported* — i.e.
  // virtually complete — before the strategy can select it), so above
  // parallelism 1 they train concurrently on a dedicated pool rather than
  // ThreadPool::global(): trainer kernels dispatch row chunks onto the
  // global pool, and eval tasks blocking inside it while their nested
  // chunks sit behind them in the same queue would deadlock.  Eval tasks
  // instead pin their kernels serial (ScopedSerialKernels) — the cores are
  // already saturated at task level, and the kernel determinism contract
  // makes that a pure scheduling choice.  At parallelism 1 they train
  // inline on this thread, so kernels keep their compute threads.
  std::unique_ptr<ThreadPool> eval_pool;
  if (cfg.eval_parallelism > 1)
    eval_pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(
        std::min(cfg.eval_parallelism, cfg.num_workers)));

  // Post-training bookkeeping for one dispatched evaluation: charge virtual
  // time, model checkpoint costs, decide crashes, and enqueue the completion
  // event.  Runs on the scheduler thread only, in worker order — so the
  // virtual timeline, float accumulation order and heap contents are
  // identical whether the training itself ran serially or on the pool.
  const auto finish_dispatch = [&](int w, long id, EvalRecord rec, Proposal proposal) {
    // In fixed-duration mode (tests, CI baselines) the measured train and
    // transfer wall times are excluded from the virtual timeline *and*
    // overwritten in the record, so the whole persisted trace — not just
    // the clock — is bit-reproducible; the mechanism cost is micro-seconds
    // here and <150 ms in the paper.
    if (cfg.fixed_train_seconds >= 0.0) {
      rec.train_seconds = cfg.fixed_train_seconds;
      rec.transfer_seconds = 0.0;
    }
    double compute_virtual =
        cfg.fixed_train_seconds >= 0.0
            ? cfg.fixed_train_seconds
            : rec.train_seconds * cfg.time_scale + rec.transfer_seconds;
    const double straggle =
        faults != nullptr ? faults->straggler_factor(id, rec.attempt) : 1.0;
    if (straggle > 1.0) {
      rec.faults |= kFaultStraggler;
      compute_virtual *= straggle;
    }

    // Checkpoint cost model.  Synchronous: the worker pays the full write.
    // Asynchronous: it pays only the enqueue latency, the drain completes
    // in the background, and a read of a still-draining parent stalls.
    rec.ckpt_write_charged =
        rec.ckpt_bytes == 0
            ? 0.0
            : (cfg.async_checkpointing ? cfg.async_enqueue_latency_s
                                       : rec.ckpt_write_cost);
    if (rec.ckpt_read_cost > 0.0 && cfg.async_checkpointing) {
      const auto it = ckpt_available_at.find(rec.parent_id);
      if (it != ckpt_available_at.end() && it->second > clock)
        rec.ckpt_read_wait = it->second - clock;
    }
    const double duration = compute_virtual + rec.ckpt_read_wait + rec.ckpt_read_cost +
                            rec.ckpt_write_charged + rec.retry_seconds;
    rec.virtual_start = clock;
    rec.worker = w;

    // Crash exposure scales with the attempt's (straggler-stretched)
    // compute time.  A crashed attempt's result is discarded: nothing is
    // reported, its checkpoint never becomes readable, and the worker is
    // out of the pool until it recovers.
    const FaultModel::CrashDecision cd =
        faults != nullptr ? faults->crash(id, rec.attempt, compute_virtual)
                          : FaultModel::CrashDecision{};
    if (cd.crashed) {
      rec.faults |= kFaultCrash;
      const double crash_at = clock + cd.work_fraction * duration;
      const double lost_seconds = cd.work_fraction * compute_virtual;
      rec.virtual_finish = crash_at;
      ++trace.crashed_attempts;
      trace.lost_train_seconds += lost_seconds;
      telemetry.crashed(rec, lost_seconds, cfg.faults.worker_recovery_s);
      worker_free[static_cast<std::size_t>(w)] =
          crash_at + cfg.faults.worker_recovery_s;
      in_flight.push(InFlight{std::move(rec), /*crashed=*/true, std::move(proposal)});
      return;
    }
    telemetry.scheduled(duration);

    rec.virtual_finish = clock + duration;
    if (rec.ckpt_bytes > 0) {
      // Sync: readable once the evaluation finishes.  Async: the drain
      // starts at the end of the evaluation and takes the full write cost.
      rec.ckpt_available_at = cfg.async_checkpointing
                                  ? rec.virtual_finish + rec.ckpt_write_cost
                                  : rec.virtual_finish;
      ckpt_available_at.emplace(rec.id, rec.ckpt_available_at);
    }
    worker_free[static_cast<std::size_t>(w)] = rec.virtual_finish;
    in_flight.push(InFlight{std::move(rec), /*crashed=*/false, Proposal{}});
  };

  // One evaluation selected for an idle worker, the unit of wavefront
  // parallelism.  `sel_state` is the strategy-RNG state at selection time
  // (invariant across eval_parallelism values, unlike any post-training
  // instant), the journal's replay cross-check; `cached` marks a record
  // restored from the journal, which skips training.
  struct Dispatch {
    int worker = 0;
    long id = 0;
    int attempt = 0;
    Proposal proposal;
    EvalRecord record;
    Rng::State sel_state;
    bool cached = false;
  };
  std::vector<Dispatch> wavefront;
  const auto train = [&evaluator, faults](Dispatch& d) {
    d.record = evaluator.evaluate(d.id, d.proposal, d.attempt, faults);
  };

  while (finished < n_evals) {
    // 1. Select: hand work to every worker that is idle at the current
    // virtual time — resubmissions of crashed attempts first, then fresh
    // proposals.  All proposals issued at the same instant see the same
    // strategy state — exactly the behaviour of an asynchronous scheduler
    // that fans out to multiple free evaluators at once.  A journal hit
    // fills the record from a previous (killed) process.
    for (int w = 0; w < cfg.num_workers; ++w) {
      if (resubmit.empty() && submitted >= n_evals) break;
      if (worker_free[static_cast<std::size_t>(w)] > clock) continue;
      Dispatch& d = wavefront.emplace_back();
      d.worker = w;
      const bool fresh = resubmit.empty();
      if (fresh) {
        d.proposal = strategy.propose(rng);
        d.id = submitted++;
      } else {
        d.id = resubmit.front().id;
        d.proposal = std::move(resubmit.front().proposal);
        d.attempt = resubmit.front().attempt;
        resubmit.pop_front();
      }
      telemetry.dispatched(clock, w, d.id, d.attempt, fresh);
      d.sel_state = rng.state();
      if (cfg.journal != nullptr) {
        const EvalRecord* hit = cfg.journal->lookup(d.id, d.attempt, d.proposal.arch, rng);
        if (hit != nullptr) {
          d.record = *hit;
          d.cached = true;
        }
      }
    }
    // 2. Train the fresh slots.  Each pool task only touches its own
    // Dispatch slot plus thread-safe shared services (checkpoint store,
    // metrics, event bus, logger); the vector is fully built before the
    // first submit, so the slots are address-stable.
    for (Dispatch& d : wavefront) {
      if (d.cached) continue;
      if (eval_pool)
        eval_pool->submit([&train, &d] {
          const kernels::ScopedSerialKernels serial_kernels;
          train(d);
        });
      else
        train(d);
    }
    if (eval_pool) eval_pool->wait_idle();  // rethrows the first failure, if any
    // 3–4. Journal and book each slot in worker order, so virtual
    // timestamps, float sums, the completion heap and the journal byte
    // stream are identical wherever the slots trained.
    for (Dispatch& d : wavefront) {
      if (!d.cached && cfg.journal != nullptr) cfg.journal->append(d.record, d.sel_state);
      finish_dispatch(d.worker, d.id, std::move(d.record), std::move(d.proposal));
    }
    wavefront.clear();

    if (in_flight.empty()) {
      // Nothing running.  If work remains (queued resubmissions or fresh
      // proposals), every worker is still in crash recovery: jump the clock
      // to the first one back up.
      if (resubmit.empty() && submitted >= n_evals)
        throw std::logic_error("run_search: no work in flight (scheduler stall)");
      clock = *std::min_element(worker_free.begin(), worker_free.end());
      continue;
    }

    // Advance the clock to the next event.
    InFlight done = in_flight.top();
    in_flight.pop();
    clock = done.record.virtual_finish;
    telemetry.clock_advanced(clock, in_flight.size());
    if (done.crashed) {
      const int next_attempt = done.record.attempt + 1;
      const bool retry = next_attempt < max_attempts;
      if (retry) {
        resubmit.push_back(Resubmit{done.record.id, std::move(done.proposal), next_attempt});
        ++trace.resubmissions;
      } else {
        ++trace.lost_evaluations;  // accounted, never silently dropped
        ++finished;
      }
      telemetry.crash_resolved(done.record.id, next_attempt, retry);
      continue;
    }
    strategy.report(Outcome{done.record.id, done.record.arch, done.record.score,
                            done.record.ckpt_key});
    trace.makespan = std::max(trace.makespan, done.record.virtual_finish);
    trace.retry_seconds += done.record.retry_seconds;
    if (done.record.transfer_fallback) ++trace.transfer_fallbacks;
    trace.records.push_back(std::move(done.record));
    ++finished;
    telemetry.completed(trace.records.back());

    if (cfg.faults.stall_after_evals >= 0 && !stall_fired &&
        finished >= cfg.faults.stall_after_evals &&
        cfg.faults.stall_wall_seconds > 0.0) {
      stall_fired = true;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(cfg.faults.stall_wall_seconds));
    }
  }

  telemetry.run_finished(trace);
  return trace;
}

}  // namespace swt
