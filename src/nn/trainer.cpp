#include "nn/trainer.hpp"

#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {

const char* to_string(ObjectiveKind o) noexcept {
  return o == ObjectiveKind::kAccuracy ? "ACC" : "R2";
}

namespace {

LossResult compute_loss(const Tensor& pred, const Dataset& batch) {
  if (batch.regression()) return mae_loss(pred, batch.y);
  return softmax_cross_entropy(pred, batch.labels);
}

}  // namespace

TrainResult Trainer::fit(Network& net, const Dataset& train, const Dataset& val,
                         const TrainOptions& opts, Rng& rng) {
  train.check();
  val.check();
  Adam adam(opts.adam);
  auto params = net.params();
  net.set_train_rng(&rng);

  // Step-level telemetry.  One registry lookup per fit() call; the per-batch
  // cost is two/three clock reads plus relaxed atomics, all skipped when
  // metrics are disabled (what bench_overhead compares).
  MetricsRegistry& m = metrics();
  Counter& epochs_total = m.counter("train.epochs_total");
  Counter& batches_total = m.counter("train.batches_total");
  Histogram& epoch_seconds = m.histogram("train.epoch_seconds");
  Histogram& forward_seconds = m.histogram("train.forward_seconds");
  Histogram& backward_seconds = m.histogram("train.backward_seconds");
  Histogram& step_seconds = m.histogram("train.step_seconds");

  TrainResult result;
  double prev_objective = std::nan("");
  int flat_streak = 0;

  std::vector<std::int64_t> batch_idx;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    const ScopedSpan epoch_span("epoch " + std::to_string(epoch), "train");
    WallTimer epoch_timer;
    BatchIterator batches(train.size(), opts.batch_size, rng);
    while (batches.next(batch_idx)) {
      const Dataset batch = train.subset(batch_idx);
      net.zero_grads();
      if (metrics_enabled()) {
        WallTimer phase;
        Tensor pred = net.forward(batch.x, /*train=*/true);
        const LossResult lr = compute_loss(pred, batch);
        forward_seconds.observe(phase.seconds());
        phase.reset();
        net.backward(lr.grad);
        backward_seconds.observe(phase.seconds());
        phase.reset();
        adam.step(params);
        step_seconds.observe(phase.seconds());
      } else {
        Tensor pred = net.forward(batch.x, /*train=*/true);
        const LossResult lr = compute_loss(pred, batch);
        net.backward(lr.grad);
        adam.step(params);
      }
      batches_total.add();
    }
    epochs_total.add();
    epoch_seconds.observe(epoch_timer.seconds());
    const double objective = evaluate(net, val, opts.objective);
    result.history.push_back(objective);
    result.final_objective = objective;
    result.epochs_run = epoch + 1;

    if (opts.early_stop_min_delta >= 0.0 && !std::isnan(prev_objective)) {
      if (std::fabs(objective - prev_objective) <= opts.early_stop_min_delta) {
        if (++flat_streak >= opts.early_stop_patience) {
          result.early_stopped = true;
          break;
        }
      } else {
        flat_streak = 0;
      }
    }
    prev_objective = objective;
  }
  net.set_train_rng(nullptr);
  return result;
}

double Trainer::evaluate(Network& net, const Dataset& data, ObjectiveKind objective,
                         std::int64_t batch_size) {
  data.check();
  const std::int64_t n = data.size();
  Tensor all_pred;
  std::vector<std::int64_t> idx;
  std::int64_t written = 0;
  for (std::int64_t lo = 0; lo < n; lo += batch_size) {
    const std::int64_t hi = std::min(n, lo + batch_size);
    idx.clear();
    for (std::int64_t i = lo; i < hi; ++i) idx.push_back(i);
    const Dataset batch = data.subset(idx);
    Tensor pred = net.forward(batch.x, /*train=*/false);
    if (all_pred.empty())
      all_pred = Tensor(pred.shape().drop_front().prepend(n));
    for (std::int64_t i = 0; i < pred.shape()[0]; ++i) {
      auto src = pred.row(i);
      auto dst = all_pred.row(written++);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  switch (objective) {
    case ObjectiveKind::kAccuracy:
      return accuracy(all_pred, data.labels);
    case ObjectiveKind::kR2:
      return r_squared(all_pred, data.y);
  }
  throw std::logic_error("evaluate: unknown objective");
}

}  // namespace swt
