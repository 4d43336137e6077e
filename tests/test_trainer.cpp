#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include "data/generators.hpp"
#include "nn/dense.hpp"
#include "nn/misc.hpp"

namespace swt {
namespace {

/// Tiny linearly-separable 2-class dataset in 2-D.
DatasetPair separable_2d(std::int64_t n_train, std::int64_t n_val, std::uint64_t seed) {
  const auto make = [&](std::int64_t n, std::uint64_t salt) {
    Rng rng(mix64(seed, salt));
    Dataset d;
    d.num_classes = 2;
    Tensor x(Shape{n, 2});
    for (std::int64_t i = 0; i < n; ++i) {
      const int label = static_cast<int>(rng.uniform_index(2));
      d.labels.push_back(label);
      const double cx = label == 0 ? -1.5 : 1.5;
      x.at(i, 0) = static_cast<float>(cx + rng.gaussian(0.0, 0.4));
      x.at(i, 1) = static_cast<float>(rng.gaussian(0.0, 0.4));
    }
    d.x.push_back(std::move(x));
    return d;
  };
  return {make(n_train, 1), make(n_val, 2)};
}

std::unique_ptr<Sequential> classifier() {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 2, 8));
  layers.push_back(std::make_unique<Activation>(ActKind::kRelu));
  layers.push_back(std::make_unique<Dense>("d1", 8, 2));
  return std::make_unique<Sequential>(std::move(layers));
}

TEST(Trainer, LearnsSeparableProblem) {
  const DatasetPair data = separable_2d(128, 64, 1);
  auto net = classifier();
  Rng rng(1);
  net->init(rng);
  TrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 16;
  opts.adam.lr = 1e-2;  // small problem, few steps: a faster lr converges
  const TrainResult r = Trainer::fit(*net, data.train, data.val, opts, rng);
  EXPECT_GT(r.final_objective, 0.95);
  EXPECT_EQ(r.epochs_run, 10);
  EXPECT_EQ(r.history.size(), 10u);
  EXPECT_FALSE(r.early_stopped);
}

TEST(Trainer, ObjectiveImprovesOverRandomInit) {
  const DatasetPair data = separable_2d(128, 64, 2);
  auto net = classifier();
  Rng rng(2);
  net->init(rng);
  const double before = Trainer::evaluate(*net, data.val, ObjectiveKind::kAccuracy);
  TrainOptions opts;
  opts.epochs = 5;
  opts.batch_size = 16;
  const TrainResult r = Trainer::fit(*net, data.train, data.val, opts, rng);
  EXPECT_GT(r.final_objective, before);
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  const DatasetPair data = separable_2d(128, 64, 3);
  auto net = classifier();
  Rng rng(3);
  net->init(rng);
  TrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 16;
  opts.early_stop_min_delta = 0.05;  // generous threshold -> quick plateau
  opts.early_stop_patience = 2;
  const TrainResult r = Trainer::fit(*net, data.train, data.val, opts, rng);
  EXPECT_TRUE(r.early_stopped);
  EXPECT_LT(r.epochs_run, 30);
  EXPECT_GE(r.epochs_run, 3);  // needs >= patience+1 epochs to trigger
}

TEST(Trainer, NegativeMinDeltaDisablesEarlyStopping) {
  const DatasetPair data = separable_2d(64, 32, 4);
  auto net = classifier();
  Rng rng(4);
  net->init(rng);
  TrainOptions opts;
  opts.epochs = 6;
  opts.batch_size = 16;
  opts.early_stop_min_delta = -1.0;
  const TrainResult r = Trainer::fit(*net, data.train, data.val, opts, rng);
  EXPECT_EQ(r.epochs_run, 6);
  EXPECT_FALSE(r.early_stopped);
}

TEST(Trainer, DeterministicForFixedSeed) {
  const DatasetPair data = separable_2d(64, 32, 5);
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 8;

  auto run = [&] {
    auto net = classifier();
    Rng rng(77);
    net->init(rng);
    return Trainer::fit(*net, data.train, data.val, opts, rng).history;
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, EvaluateMatchesAcrossBatchSizes) {
  const DatasetPair data = separable_2d(100, 50, 6);
  auto net = classifier();
  Rng rng(6);
  net->init(rng);
  const double full = Trainer::evaluate(*net, data.val, ObjectiveKind::kAccuracy, 50);
  const double batched = Trainer::evaluate(*net, data.val, ObjectiveKind::kAccuracy, 7);
  EXPECT_DOUBLE_EQ(full, batched);
}

TEST(Trainer, RegressionObjective) {
  // y = 2 x0 - x1; an MLP with MAE loss should reach a high R^2.
  Rng gen(7);
  const auto make = [&](std::int64_t n) {
    Dataset d;
    Tensor x(Shape{n, 2});
    Tensor y(Shape{n, 1});
    for (std::int64_t i = 0; i < n; ++i) {
      x.at(i, 0) = static_cast<float>(gen.gaussian());
      x.at(i, 1) = static_cast<float>(gen.gaussian());
      y.at(i, 0) = 2.0f * x.at(i, 0) - x.at(i, 1);
    }
    d.x.push_back(std::move(x));
    d.y = std::move(y);
    return d;
  };
  DatasetPair data{make(256), make(64)};

  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 2, 16));
  layers.push_back(std::make_unique<Activation>(ActKind::kTanh));
  layers.push_back(std::make_unique<Dense>("d1", 16, 1));
  Sequential net(std::move(layers));
  Rng rng(7);
  net.init(rng);
  TrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 16;
  opts.objective = ObjectiveKind::kR2;
  opts.adam.lr = 5e-3;
  const TrainResult r = Trainer::fit(net, data.train, data.val, opts, rng);
  EXPECT_GT(r.final_objective, 0.8);
}

TEST(Trainer, ToStringOfObjectives) {
  EXPECT_STREQ(to_string(ObjectiveKind::kAccuracy), "ACC");
  EXPECT_STREQ(to_string(ObjectiveKind::kR2), "R2");
}

TEST(BatchIteratorTest, CoversEpochExactlyOnce) {
  Rng rng(8);
  BatchIterator it(10, 3, rng);
  std::vector<std::int64_t> batch;
  std::vector<int> seen(10, 0);
  std::vector<std::size_t> batch_sizes;
  while (it.next(batch)) {
    batch_sizes.push_back(batch.size());
    for (std::int64_t i : batch) ++seen[static_cast<std::size_t>(i)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{3, 3, 3, 1}));
}

TEST(BatchIteratorTest, RejectsBadBatchSize) {
  Rng rng(9);
  EXPECT_THROW(BatchIterator(10, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace swt
