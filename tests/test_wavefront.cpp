// Wavefront parallelism correctness: the evaluations dispatched at one
// virtual instant train on real threads when eval_parallelism > 1, and the
// resulting trace must be *byte-identical* to the serial run — same virtual
// timeline, same scores, same CSV down to the last bit.  The oracle rests on
// (a) the kernel determinism contract (bit-identical results at any thread
// count) and (b) fixed_train_seconds replacing measured wall times in the
// records.  Runs under TSan in CI (`sanitize` label + SWT_SANITIZE=thread).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "cluster/virtual_cluster.hpp"
#include "data/generators.hpp"
#include "exp/trace_io.hpp"
#include "nas/spaces_zoo.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {
namespace {

class WavefrontFixture : public ::testing::Test {
 protected:
  WavefrontFixture()
      : space_(make_mnist_space(8)),
        data_(make_mnist_like({.n_train = 32, .n_val = 16, .seed = 1})) {}

  Trace run(int eval_parallelism, TransferMode mode = TransferMode::kLCS,
            int workers = 4, long n_evals = 24, const FaultConfig& faults = {}) {
    CheckpointStore store;
    Evaluator::Config ecfg;
    ecfg.mode = mode;
    ecfg.train.epochs = 1;
    ecfg.train.batch_size = 16;
    ecfg.train.objective = ObjectiveKind::kAccuracy;
    ecfg.seed = 9;
    ecfg.write_checkpoints = mode != TransferMode::kNone;
    Evaluator evaluator(space_, data_, store, ecfg);
    RegularizedEvolution strategy(space_, {.population_size = 6, .sample_size = 3});
    Rng rng(7);
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.eval_parallelism = eval_parallelism;
    cfg.fixed_train_seconds = 1.0;
    cfg.faults = faults;
    return run_search(evaluator, strategy, n_evals, cfg, rng);
  }

  /// What the scheduler thread reports about one run, rendered for byte
  /// comparison: the virtual-timeline spans, the bus events except the
  /// evaluator's ckpt_* ones (wall time zeroed), and the cluster.*,
  /// search.* and quality.* metrics.
  struct Telemetry {
    std::string spans;
    std::string events;
    std::string metrics;
  };

  Telemetry run_observed(int eval_parallelism, const FaultConfig& faults) {
    SpanTracer& tracer = SpanTracer::global();
    EventBus& bus = EventBus::global();
    std::vector<Event> seen;
    struct Instruments {
      SpanTracer& tracer;
      EventBus& bus;
      int listener;
      ~Instruments() {
        bus.remove_listener(listener);
        bus.set_enabled(false);
        tracer.set_enabled(false);
        tracer.clear();
      }
    } on{tracer, bus, bus.add_listener([&seen](const Event& ev) {
           switch (ev.type) {
             case EventType::kCkptRead:
             case EventType::kCkptWrite:
             case EventType::kCkptRetry:
             case EventType::kCkptGiveUp: return;
             default: seen.push_back(ev);
           }
         })};
    tracer.clear();
    tracer.set_enabled(true);
    bus.set_enabled(true);
    metrics().reset();
    (void)run(eval_parallelism, TransferMode::kLCS, 4, 24, faults);

    Telemetry t;
    std::vector<TraceEvent> spans = tracer.events();
    std::erase_if(spans, [](const TraceEvent& ev) { return ev.pid != kTraceVirtualPid; });
    std::ostringstream span_json;
    write_trace_json(span_json, spans);
    t.spans = span_json.str();
    for (Event& ev : seen) {
      ev.wall_s = 0.0;
      t.events += event_to_ndjson(ev) + '\n';
    }
    MetricsSnapshot snap = metrics().snapshot();
    const auto foreign = [](const auto& kv) {
      return kv.first.rfind("cluster.", 0) != 0 && kv.first.rfind("search.", 0) != 0 &&
             kv.first.rfind("quality.", 0) != 0;
    };
    std::erase_if(snap.counters, foreign);
    std::erase_if(snap.gauges, foreign);
    std::erase_if(snap.histograms, foreign);
    std::ostringstream metric_json;
    write_metrics_json(metric_json, snap);
    t.metrics = metric_json.str();
    return t;
  }

  static std::string csv(const Trace& trace) {
    std::ostringstream os;
    write_trace_csv(os, trace);
    return os.str();
  }

  SearchSpace space_;
  DatasetPair data_;
};

TEST_F(WavefrontFixture, ParallelTraceByteIdenticalToSerial) {
  const std::string serial = csv(run(1));
  const std::string parallel = csv(run(4));
  EXPECT_EQ(serial, parallel);
}

TEST_F(WavefrontFixture, ByteIdenticalAtEveryParallelism) {
  const std::string serial = csv(run(1));
  for (int p : {2, 3, 8}) {
    EXPECT_EQ(serial, csv(run(p))) << "eval_parallelism=" << p;
  }
}

TEST_F(WavefrontFixture, ByteIdenticalWithoutTransfer) {
  EXPECT_EQ(csv(run(1, TransferMode::kNone)), csv(run(4, TransferMode::kNone)));
}

TEST_F(WavefrontFixture, ByteIdenticalUnderFaults) {
  // Crashes, stragglers and flaky checkpoint I/O all flow through the same
  // deterministic FaultModel oracle, so the parallel substrate must
  // reproduce resubmissions and recovery windows exactly.
  FaultConfig faults;
  faults.mtbf_seconds = 15.0;
  faults.straggler_rate = 0.2;
  faults.straggler_multiplier = 3.0;
  faults.ckpt_read_fault_rate = 0.1;
  faults.ckpt_write_fault_rate = 0.1;
  faults.worker_recovery_s = 5.0;
  const Trace a = run(1, TransferMode::kLCS, 4, 24, faults);
  const Trace b = run(4, TransferMode::kLCS, 4, 24, faults);
  EXPECT_EQ(csv(a), csv(b));
  EXPECT_EQ(a.crashed_attempts, b.crashed_attempts);
  EXPECT_EQ(a.resubmissions, b.resubmissions);
  EXPECT_EQ(a.lost_evaluations, b.lost_evaluations);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST_F(WavefrontFixture, TelemetryIdenticalAtEveryParallelism) {
  // The scheduler reports every lifecycle fact on its own thread in
  // scheduler order, so what the instruments see is part of the
  // determinism contract too — with and without injected faults.
  FaultConfig faulty;
  faulty.mtbf_seconds = 15.0;
  faulty.straggler_rate = 0.2;
  faulty.straggler_multiplier = 3.0;
  faulty.ckpt_read_fault_rate = 0.1;
  faulty.ckpt_write_fault_rate = 0.1;
  faulty.worker_recovery_s = 5.0;
  for (const FaultConfig& faults : {FaultConfig{}, faulty}) {
    const Telemetry serial = run_observed(1, faults);
    EXPECT_NE(serial.spans.find("\"eval 0\""), std::string::npos);
    EXPECT_NE(serial.events.find("\"ev\":\"run_finished\""), std::string::npos);
    EXPECT_NE(serial.metrics.find("cluster.worker_busy_seconds"), std::string::npos);
    for (int p : {2, 4}) {
      const Telemetry parallel = run_observed(p, faults);
      EXPECT_EQ(serial.spans, parallel.spans) << "eval_parallelism=" << p;
      EXPECT_EQ(serial.events, parallel.events) << "eval_parallelism=" << p;
      EXPECT_EQ(serial.metrics, parallel.metrics) << "eval_parallelism=" << p;
    }
  }
}

TEST_F(WavefrontFixture, ParallelismBeyondWorkerCountIsClamped) {
  // More eval threads than simulated workers cannot change anything: the
  // wavefront never holds more than num_workers evaluations.
  EXPECT_EQ(csv(run(1)), csv(run(64)));
}

TEST_F(WavefrontFixture, StrategySeesSameLineage) {
  const Trace a = run(1);
  const Trace b = run(4);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].parent_id, b.records[i].parent_id);
    EXPECT_EQ(a.records[i].arch, b.records[i].arch);
    EXPECT_DOUBLE_EQ(a.records[i].score, b.records[i].score);
  }
}

TEST_F(WavefrontFixture, NonPositiveParallelismThrows) {
  EXPECT_THROW(run(0), std::invalid_argument);
  EXPECT_THROW(run(-3), std::invalid_argument);
}

}  // namespace
}  // namespace swt
