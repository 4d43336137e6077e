#include "cluster/virtual_cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "data/generators.hpp"
#include "nas/spaces_zoo.hpp"

namespace swt {
namespace {

class ClusterFixture : public ::testing::Test {
 protected:
  ClusterFixture()
      : space_(make_mnist_space(8)),
        data_(make_mnist_like({.n_train = 32, .n_val = 16, .seed = 1})) {}

  Evaluator::Config eval_config(TransferMode mode) {
    Evaluator::Config cfg;
    cfg.mode = mode;
    cfg.train.epochs = 1;
    cfg.train.batch_size = 16;
    cfg.train.objective = ObjectiveKind::kAccuracy;
    cfg.seed = 9;
    cfg.write_checkpoints = mode != TransferMode::kNone;
    return cfg;
  }

  Trace run(TransferMode mode, int workers, long n_evals,
            double fixed_train_seconds = 1.0) {
    CheckpointStore store;
    Evaluator evaluator(space_, data_, store, eval_config(mode));
    RegularizedEvolution strategy(space_, {.population_size = 6, .sample_size = 3});
    Rng rng(7);
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.fixed_train_seconds = fixed_train_seconds;
    return run_search(evaluator, strategy, n_evals, cfg, rng);
  }

  SearchSpace space_;
  DatasetPair data_;
};

TEST_F(ClusterFixture, ProducesRequestedNumberOfRecords) {
  const Trace trace = run(TransferMode::kNone, 4, 20);
  EXPECT_EQ(trace.records.size(), 20u);
  EXPECT_EQ(trace.num_workers, 4);
}

TEST_F(ClusterFixture, IdsAreUnique) {
  const Trace trace = run(TransferMode::kLCS, 4, 20);
  std::set<long> ids;
  for (const auto& r : trace.records) ids.insert(r.id);
  EXPECT_EQ(ids.size(), 20u);
}

TEST_F(ClusterFixture, RecordsOrderedByVirtualCompletion) {
  const Trace trace = run(TransferMode::kLCS, 3, 24);
  for (std::size_t i = 1; i < trace.records.size(); ++i)
    EXPECT_LE(trace.records[i - 1].virtual_finish, trace.records[i].virtual_finish);
  EXPECT_DOUBLE_EQ(trace.makespan, trace.records.back().virtual_finish);
}

TEST_F(ClusterFixture, DeterministicWithFixedDurations) {
  const Trace a = run(TransferMode::kLCS, 4, 20);
  const Trace b = run(TransferMode::kLCS, 4, 20);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].arch, b.records[i].arch);
    EXPECT_DOUBLE_EQ(a.records[i].score, b.records[i].score);
    EXPECT_DOUBLE_EQ(a.records[i].virtual_finish, b.records[i].virtual_finish);
  }
}

TEST_F(ClusterFixture, MoreWorkersShrinkMakespan) {
  // With unit-duration tasks the makespan is essentially ceil(n/workers).
  const Trace t1 = run(TransferMode::kNone, 1, 16);
  const Trace t4 = run(TransferMode::kNone, 4, 16);
  const Trace t8 = run(TransferMode::kNone, 8, 16);
  EXPECT_NEAR(t1.makespan, 16.0, 1e-9);
  EXPECT_NEAR(t4.makespan, 4.0, 1e-9);
  EXPECT_NEAR(t8.makespan, 2.0, 1e-9);
}

TEST_F(ClusterFixture, BaselineHasNoCheckpointTraffic) {
  const Trace trace = run(TransferMode::kNone, 4, 16);
  for (const auto& r : trace.records) {
    EXPECT_EQ(r.ckpt_read_cost, 0.0);
    EXPECT_EQ(r.ckpt_write_cost, 0.0);
    EXPECT_EQ(r.ckpt_bytes, 0u);
    EXPECT_EQ(r.tensors_transferred, 0u);
  }
  EXPECT_EQ(trace.total_ckpt_overhead(), 0.0);
}

TEST_F(ClusterFixture, TransferModeWritesEveryCheckpoint) {
  const Trace trace = run(TransferMode::kLCS, 4, 16);
  for (const auto& r : trace.records) {
    EXPECT_GT(r.ckpt_write_cost, 0.0);
    EXPECT_GT(r.ckpt_bytes, 0u);
    EXPECT_FALSE(r.ckpt_key.empty());
  }
  EXPECT_GT(trace.total_ckpt_overhead(), 0.0);
}

TEST_F(ClusterFixture, TransfersHappenAfterWarmup) {
  const Trace trace = run(TransferMode::kLCS, 2, 30);
  std::size_t with_parent = 0, with_transfer = 0;
  for (const auto& r : trace.records) {
    if (r.parent_id >= 0) {
      ++with_parent;
      EXPECT_GT(r.ckpt_read_cost, 0.0) << "parent read must be charged";
      if (r.tensors_transferred > 0) ++with_transfer;
    }
  }
  EXPECT_GT(with_parent, 10u);
  EXPECT_GT(with_transfer, 8u);  // d=1 children nearly always share tensors
}

TEST_F(ClusterFixture, WarmupRecordsHaveNoParent) {
  const Trace trace = run(TransferMode::kLCS, 2, 12);
  int no_parent = 0;
  for (const auto& r : trace.records) no_parent += r.parent_id < 0;
  EXPECT_GE(no_parent, 6);  // at least the population-size warm-up
}

TEST_F(ClusterFixture, ScoresAreValidObjectives) {
  const Trace trace = run(TransferMode::kLP, 4, 16);
  for (const auto& r : trace.records) {
    EXPECT_GE(r.score, 0.0);
    EXPECT_LE(r.score, 1.0);
    EXPECT_GT(r.param_count, 0);
    EXPECT_GT(r.train_seconds, 0.0);
  }
}

TEST_F(ClusterFixture, InvalidWorkerCountThrows) {
  CheckpointStore store;
  Evaluator evaluator(space_, data_, store, eval_config(TransferMode::kNone));
  RegularizedEvolution strategy(space_, {.population_size = 4, .sample_size = 2});
  Rng rng(1);
  ClusterConfig cfg;
  cfg.num_workers = 0;
  EXPECT_THROW((void)run_search(evaluator, strategy, 4, cfg, rng), std::invalid_argument);
}

TEST_F(ClusterFixture, TimeScaleStretchesVirtualTime) {
  CheckpointStore store;
  Evaluator evaluator(space_, data_, store, eval_config(TransferMode::kNone));
  RegularizedEvolution strategy(space_, {.population_size = 4, .sample_size = 2});
  Rng rng(2);
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.time_scale = 100.0;
  const Trace trace = run_search(evaluator, strategy, 8, cfg, rng);
  for (const auto& r : trace.records)
    EXPECT_NEAR(r.virtual_finish - r.virtual_start, r.train_seconds * 100.0, 1e-9);
}

TEST_F(ClusterFixture, ScoresIndependentOfWorkerCountPerId) {
  // Per-candidate randomness derives from (seed, id), so a candidate with
  // the same id and arch scores identically under different worker counts.
  const Trace t2 = run(TransferMode::kNone, 2, 12);
  const Trace t4 = run(TransferMode::kNone, 4, 12);
  std::map<long, const EvalRecord*> by_id;
  for (const auto& r : t2.records) by_id[r.id] = &r;
  for (const auto& r : t4.records) {
    const auto it = by_id.find(r.id);
    ASSERT_NE(it, by_id.end());
    if (it->second->arch == r.arch) {
      EXPECT_DOUBLE_EQ(it->second->score, r.score);
    }
  }
}

class WorkerScalingSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorkerScalingSweep, MakespanMatchesListScheduleBound) {
  const int workers = GetParam();
  const SearchSpace space = make_mnist_space(8);
  const DatasetPair data = make_mnist_like({.n_train = 16, .n_val = 16, .seed = 2});
  CheckpointStore store;
  Evaluator::Config ecfg;
  ecfg.train.epochs = 1;
  ecfg.train.batch_size = 16;
  ecfg.write_checkpoints = false;
  Evaluator evaluator(space, data, store, ecfg);
  RegularizedEvolution strategy(space, {.population_size = 4, .sample_size = 2});
  Rng rng(3);
  ClusterConfig cfg;
  cfg.num_workers = workers;
  cfg.fixed_train_seconds = 1.0;
  const long n = 32;
  const Trace trace = run_search(evaluator, strategy, n, cfg, rng);
  EXPECT_NEAR(trace.makespan,
              std::ceil(static_cast<double>(n) / workers), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerScalingSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace swt
