// Cross-module randomized property tests: invariants that must hold for any
// seed, wired through the real end-to-end machinery (fuzz-light).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/stats.hpp"
#include "exp/analysis.hpp"
#include "exp/runner.hpp"

namespace swt {
namespace {

// ---------------------------------------------------------------------------
// Virtual-cluster scheduling invariants
// ---------------------------------------------------------------------------

class TraceInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  NasRun run() {
    const AppConfig app = make_app(AppId::kMnist, GetParam(), {.data_scale = 0.2});
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = 24;
    cfg.seed = GetParam();
    cfg.cluster.num_workers = 3;
    cfg.evolution = {.population_size = 6, .sample_size = 3};
    return run_nas(app, cfg);
  }
};

TEST_P(TraceInvariants, WorkerBusyIntervalsNeverOverlap) {
  const NasRun r = run();
  std::map<int, std::vector<std::pair<double, double>>> by_worker;
  for (const auto& rec : r.trace.records)
    by_worker[rec.worker].emplace_back(rec.virtual_start, rec.virtual_finish);
  for (auto& [worker, intervals] : by_worker) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
          << "worker " << worker << " double-booked";
  }
}

TEST_P(TraceInvariants, ParentsCompleteBeforeChildrenStart) {
  const NasRun r = run();
  std::map<long, double> finish_by_id;
  for (const auto& rec : r.trace.records) finish_by_id[rec.id] = rec.virtual_finish;
  for (const auto& rec : r.trace.records) {
    if (rec.parent_id < 0) continue;
    ASSERT_TRUE(finish_by_id.contains(rec.parent_id));
    // A child is proposed only after its parent was reported, i.e. after the
    // parent's virtual completion.
    EXPECT_GE(rec.virtual_start, finish_by_id[rec.parent_id] - 1e-9);
    EXPECT_LT(rec.parent_id, rec.id);
  }
}

TEST_P(TraceInvariants, DurationsDecomposeExactly) {
  const NasRun r = run();
  for (const auto& rec : r.trace.records) {
    const double duration = rec.virtual_finish - rec.virtual_start;
    // duration = scaled train + transfer + ckpt read (+wait) + charged write.
    EXPECT_GT(duration, 0.0);
    EXPECT_GE(duration, rec.ckpt_read_cost + rec.ckpt_read_wait + rec.ckpt_write_charged -
                            1e-9);
  }
}

TEST_P(TraceInvariants, EveryCheckpointKeyResolves) {
  const NasRun r = run();
  for (const auto& rec : r.trace.records) {
    ASSERT_FALSE(rec.ckpt_key.empty());
    EXPECT_TRUE(r.store->contains(rec.ckpt_key));
    const Checkpoint ckpt = r.store->get(rec.ckpt_key).first;
    EXPECT_EQ(ckpt.arch, rec.arch);
  }
}

TEST_P(TraceInvariants, TopKMatchesSortReference) {
  const NasRun r = run();
  const auto top = top_k(r.trace, 5);
  // Reference: best score over distinct archs, descending.
  std::map<std::uint64_t, double> best;
  for (const auto& rec : r.trace.records) {
    auto [it, inserted] = best.try_emplace(arch_hash(rec.arch), rec.score);
    if (!inserted) it->second = std::max(it->second, rec.score);
  }
  std::vector<double> scores;
  for (auto& [h, s] : best) scores.push_back(s);
  std::sort(scores.rbegin(), scores.rend());
  for (std::size_t i = 0; i < top.size(); ++i)
    EXPECT_DOUBLE_EQ(top[i].score, scores[i]) << i;
}

TEST_P(TraceInvariants, BucketScoresConserveMass) {
  const NasRun r = run();
  for (double slot : {0.5, 1.0, 3.0}) {
    const auto pts = bucket_scores(r.trace, slot);
    int total = 0;
    double weighted = 0.0;
    for (const auto& p : pts) {
      total += p.count;
      weighted += p.mean * p.count;
    }
    EXPECT_EQ(total, 24);
    double direct = 0.0;
    for (const auto& rec : r.trace.records) direct += rec.score;
    EXPECT_NEAR(weighted, direct, 1e-9);
  }
}

TEST_P(TraceInvariants, LineageDepthsBoundedByTraceLength) {
  const NasRun r = run();
  const auto depths = lineage_depths(r.trace);
  for (const auto& [id, d] : depths) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, static_cast<int>(r.trace.records.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariants, ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Serialization fuzz: random checkpoints round-trip
// ---------------------------------------------------------------------------

Checkpoint random_checkpoint(Rng& rng) {
  Checkpoint ckpt;
  const int arch_len = static_cast<int>(rng.uniform_index(8));
  for (int i = 0; i < arch_len; ++i)
    ckpt.arch.push_back(static_cast<int>(rng.uniform_index(10)));
  ckpt.score = rng.uniform(-1.0, 1.0);
  const int n_layers = 1 + static_cast<int>(rng.uniform_index(6));
  for (int l = 0; l < n_layers; ++l) {
    const std::string prefix = std::string("l").append(std::to_string(l));
    const std::int64_t w = 1 + static_cast<std::int64_t>(rng.uniform_index(8));
    const std::int64_t h = 1 + static_cast<std::int64_t>(rng.uniform_index(8));
    Tensor kernel(Shape{w, h});
    kernel.randn(rng, 1.0f);
    Tensor bias(Shape{h});
    bias.randn(rng, 1.0f);
    ckpt.tensors.push_back({prefix + "/W", std::move(kernel)});
    ckpt.tensors.push_back({prefix + "/b", std::move(bias)});
  }
  return ckpt;
}

class SerializationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationFuzz, CheckpointRoundTripsLossless) {
  Rng rng(GetParam());
  const Checkpoint original = random_checkpoint(rng);
  const Checkpoint restored = deserialize(serialize(original));
  EXPECT_EQ(restored.arch, original.arch);
  ASSERT_EQ(restored.tensors.size(), original.tensors.size());
  for (std::size_t i = 0; i < original.tensors.size(); ++i)
    EXPECT_EQ(restored.tensors[i].value, original.tensors[i].value);
}

TEST_P(SerializationFuzz, CompressedSizesMatchFormula) {
  Rng rng(GetParam() + 100);
  const Checkpoint ckpt = random_checkpoint(rng);
  const auto base = serialize(ckpt, CompressionKind::kNone).size();
  const auto fp16 = serialize(ckpt, CompressionKind::kFp16).size();
  std::size_t payload = 0, fp16_payload = 0;
  for (const auto& t : ckpt.tensors) {
    payload += encoded_size(CompressionKind::kNone, static_cast<std::size_t>(t.value.numel()));
    fp16_payload +=
        encoded_size(CompressionKind::kFp16, static_cast<std::size_t>(t.value.numel()));
  }
  EXPECT_EQ(base - fp16, payload - fp16_payload);  // metadata identical
}

TEST_P(SerializationFuzz, SerializedSizeMatchesEncodedBlob) {
  // The store's full-blob price is computed without encoding; it must equal
  // the real blob for every codec.
  Rng rng(GetParam() + 200);
  const Checkpoint ckpt = random_checkpoint(rng);
  for (CompressionKind kind :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8})
    EXPECT_EQ(serialized_size(ckpt, kind), serialize(ckpt, kind).size()) << to_string(kind);
}

TEST_P(SerializationFuzz, TransferFromFuzzedCheckpointNeverCorruptsShapes) {
  // Random provider checkpoints against a real model: whatever matches, the
  // receiver's tensor shapes must never change.
  Rng rng(GetParam() + 300);
  const SearchSpace space = make_mnist_space(8);
  NetworkPtr receiver = space.build(space.random_arch(rng));
  receiver->init(rng);
  std::vector<Shape> shapes_before;
  for (const auto& p : receiver->params()) shapes_before.push_back(p.value->shape());
  const Checkpoint provider = random_checkpoint(rng);
  (void)apply_transfer(provider, *receiver, TransferMode::kLCS);
  const auto params = receiver->params();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(params[i].value->shape(), shapes_before[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Statistics invariants under random inputs
// ---------------------------------------------------------------------------

class StatsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsFuzz, TauIsAntisymmetricUnderNegation) {
  Rng rng(GetParam());
  std::vector<double> x, y, neg_y;
  for (int i = 0; i < 60; ++i) {
    x.push_back(rng.gaussian());
    y.push_back(rng.gaussian());
    neg_y.push_back(-y.back());
  }
  EXPECT_NEAR(kendall_tau(x, y), -kendall_tau(x, neg_y), 1e-12);
}

TEST_P(StatsFuzz, TauIsSymmetricInArguments) {
  Rng rng(GetParam() + 1);
  std::vector<double> x, y;
  for (int i = 0; i < 40; ++i) {
    x.push_back(rng.gaussian());
    y.push_back(rng.gaussian());
  }
  EXPECT_NEAR(kendall_tau(x, y), kendall_tau(y, x), 1e-12);
}

TEST_P(StatsFuzz, GeometricMeanBetweenMinAndMax) {
  Rng rng(GetParam() + 2);
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(rng.uniform(0.1, 10.0));
  const double g = geometric_mean(xs);
  EXPECT_GE(g, *std::min_element(xs.begin(), xs.end()) - 1e-12);
  EXPECT_LE(g, *std::max_element(xs.begin(), xs.end()) + 1e-12);
  EXPECT_LE(g, mean(xs) + 1e-12);  // AM-GM
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsFuzz, ::testing::Values(3, 7, 31, 127));

}  // namespace
}  // namespace swt
