#include "exp/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "exp/runner.hpp"

namespace swt {
namespace {

Trace sample_trace() {
  const AppConfig app = make_app(AppId::kMnist, 9, {.data_scale = 0.2});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 12;
  cfg.seed = 9;
  cfg.cluster.num_workers = 3;
  cfg.cluster.fixed_train_seconds = 1.0;
  cfg.evolution = {.population_size = 4, .sample_size = 2};
  return run_nas(app, cfg).trace;
}

TEST(TraceIo, RoundTripsThroughStream) {
  const Trace original = sample_trace();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);

  EXPECT_EQ(restored.num_workers, original.num_workers);
  EXPECT_NEAR(restored.makespan, original.makespan, 1e-9);
  ASSERT_EQ(restored.records.size(), original.records.size());
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = restored.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_EQ(a.parent_id, b.parent_id);
    EXPECT_EQ(a.ckpt_key, b.ckpt_key);
    EXPECT_EQ(a.param_count, b.param_count);
    EXPECT_EQ(a.tensors_transferred, b.tensors_transferred);
    EXPECT_EQ(a.values_transferred, b.values_transferred);
    EXPECT_DOUBLE_EQ(a.train_seconds, b.train_seconds);
    EXPECT_DOUBLE_EQ(a.ckpt_read_cost, b.ckpt_read_cost);
    EXPECT_DOUBLE_EQ(a.ckpt_write_cost, b.ckpt_write_cost);
    EXPECT_EQ(a.ckpt_bytes, b.ckpt_bytes);
    EXPECT_DOUBLE_EQ(a.virtual_start, b.virtual_start);
    EXPECT_DOUBLE_EQ(a.virtual_finish, b.virtual_finish);
    EXPECT_EQ(a.worker, b.worker);
  }
}

TEST(TraceIo, RoundTripsThroughFile) {
  const Trace original = sample_trace();
  const auto path =
      (std::filesystem::temp_directory_path() / "swtnas_trace_test.csv").string();
  write_trace_csv(path, original);
  const Trace restored = read_trace_csv(path);
  EXPECT_EQ(restored.records.size(), original.records.size());
  std::filesystem::remove(path);
}

TEST(TraceIo, TopKWorksOnRestoredTrace) {
  const Trace original = sample_trace();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);
  const auto top_orig = top_k(original, 3);
  const auto top_rest = top_k(restored, 3);
  ASSERT_EQ(top_orig.size(), top_rest.size());
  for (std::size_t i = 0; i < top_orig.size(); ++i) {
    EXPECT_EQ(top_orig[i].arch, top_rest[i].arch);
    EXPECT_DOUBLE_EQ(top_orig[i].score, top_rest[i].score);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace empty;
  empty.num_workers = 5;
  std::stringstream ss;
  write_trace_csv(ss, empty);
  const Trace restored = read_trace_csv(ss);
  EXPECT_TRUE(restored.records.empty());
  EXPECT_EQ(restored.num_workers, 5);
}

TEST(TraceIo, FaultFieldsAndCountersRoundTrip) {
  Trace original;
  original.num_workers = 2;
  original.makespan = 42.5;
  original.crashed_attempts = 3;
  original.resubmissions = 2;
  original.lost_evaluations = 1;
  original.lost_train_seconds = 1.75;
  original.retry_seconds = 0.375;
  original.transfer_fallbacks = 4;
  EvalRecord r;
  r.id = 7;
  r.arch = {1, 2, 3};
  r.score = 0.5;
  r.parent_id = 2;
  r.attempt = 2;
  r.faults = kFaultStraggler | kFaultCkptRead | kFaultParentUnreadable;
  r.retries = 5;
  r.retry_seconds = 0.25;
  r.transfer_fallback = true;
  original.records.push_back(r);

  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);
  EXPECT_EQ(restored.crashed_attempts, 3);
  EXPECT_EQ(restored.resubmissions, 2);
  EXPECT_EQ(restored.lost_evaluations, 1);
  EXPECT_DOUBLE_EQ(restored.lost_train_seconds, 1.75);
  EXPECT_DOUBLE_EQ(restored.retry_seconds, 0.375);
  EXPECT_EQ(restored.transfer_fallbacks, 4);
  ASSERT_EQ(restored.records.size(), 1u);
  const auto& b = restored.records[0];
  EXPECT_EQ(b.attempt, 2);
  EXPECT_EQ(b.faults, r.faults);
  EXPECT_EQ(b.retries, 5);
  EXPECT_DOUBLE_EQ(b.retry_seconds, 0.25);
  EXPECT_TRUE(b.transfer_fallback);
}

TEST(TraceIo, ReadsLegacyTracesWithoutFaultColumns) {
  // A trace written before the fault-tolerance columns existed: 19 columns,
  // no failure counters in the preamble.
  const std::string text =
      "# swtnas trace, num_workers=2, makespan=3.5\n"
      "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
      "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
      "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
      "ckpt_available_at,virtual_start,virtual_finish,worker\n"
      "0,1|2,0.75,-1,ck-0,100,0,0,0.5,0,0,0.01,64,0.01,0,1.5,0,1.5,1\n";
  std::stringstream ss(text);
  const Trace restored = read_trace_csv(ss);
  EXPECT_EQ(restored.num_workers, 2);
  ASSERT_EQ(restored.records.size(), 1u);
  const auto& r = restored.records[0];
  EXPECT_EQ(r.id, 0);
  EXPECT_DOUBLE_EQ(r.score, 0.75);
  EXPECT_EQ(r.worker, 1);
  // Fault fields default to "clean" for legacy traces.
  EXPECT_EQ(r.attempt, 0);
  EXPECT_EQ(r.faults, 0u);
  EXPECT_EQ(r.retries, 0);
  EXPECT_DOUBLE_EQ(r.retry_seconds, 0.0);
  EXPECT_FALSE(r.transfer_fallback);
  EXPECT_EQ(restored.crashed_attempts, 0);
  EXPECT_EQ(restored.lost_evaluations, 0);
}

TEST(TraceIo, FirstEpochScoreRoundTrips) {
  Trace original;
  original.num_workers = 1;
  EvalRecord r;
  r.id = 1;
  r.score = 0.75;
  r.first_epoch_score = 0.25;
  original.records.push_back(r);
  std::stringstream ss;
  write_trace_csv(ss, original);
  const Trace restored = read_trace_csv(ss);
  ASSERT_EQ(restored.records.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.records[0].first_epoch_score, 0.25);
}

TEST(TraceIo, V2TwentyFourColumnTraceRoundTrips) {
  // Dedicated round-trip through the 24-column fallback: render a modern
  // trace whose first_epoch_score equals the final score (what the fallback
  // reconstructs), then strip the trailing first_epoch_score column from the
  // header and every data row — producing the exact V2 format — and check
  // that reading it back restores every remaining field.  Deriving the text
  // from the current writer keeps this test in sync with the live format.
  Trace original;
  original.num_workers = 3;
  original.makespan = 9.5;
  original.crashed_attempts = 1;
  original.resubmissions = 1;
  original.retry_seconds = 0.125;
  for (long i = 0; i < 3; ++i) {
    EvalRecord r;
    r.id = i;
    r.arch = {static_cast<int>(i), 2, 5};
    r.score = 0.25 + 0.125 * static_cast<double>(i);
    r.first_epoch_score = r.score;  // single-epoch: early == final
    r.parent_id = i - 1;
    r.ckpt_key = "ck-" + std::to_string(i);
    r.param_count = 100 + i;
    r.tensors_transferred = static_cast<std::size_t>(i);
    r.values_transferred = static_cast<std::size_t>(10 * i);
    r.train_seconds = 1.5;
    r.ckpt_read_cost = 0.01;
    r.ckpt_write_cost = 0.02;
    r.ckpt_bytes = 64;
    r.ckpt_write_charged = 0.02;
    r.ckpt_available_at = 2.0 + static_cast<double>(i);
    r.virtual_start = static_cast<double>(i);
    r.virtual_finish = 2.0 + static_cast<double>(i);
    r.worker = static_cast<int>(i);
    r.attempt = static_cast<int>(i % 2);
    r.faults = i == 1 ? (kFaultStraggler | kFaultCkptRead) : 0u;
    r.retries = static_cast<int>(i);
    r.retry_seconds = 0.0625 * static_cast<double>(i);
    r.transfer_fallback = i == 2;
    original.records.push_back(r);
  }

  std::stringstream out;
  write_trace_csv(out, original);
  std::istringstream lines(out.str());
  std::string text, line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!first) line.erase(line.rfind(','));  // drop the 25th column
    first = false;
    text += line + '\n';
  }
  ASSERT_NE(text.find(",transfer_fallback\n"), std::string::npos)
      << "expected the stripped header to end at the V2 column set";

  std::stringstream in(text);
  const Trace restored = read_trace_csv(in);
  EXPECT_EQ(restored.num_workers, 3);
  EXPECT_DOUBLE_EQ(restored.makespan, 9.5);
  EXPECT_EQ(restored.crashed_attempts, 1);
  EXPECT_EQ(restored.resubmissions, 1);
  EXPECT_DOUBLE_EQ(restored.retry_seconds, 0.125);
  ASSERT_EQ(restored.records.size(), original.records.size());
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = restored.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arch, b.arch);
    EXPECT_DOUBLE_EQ(a.score, b.score);
    EXPECT_DOUBLE_EQ(a.first_epoch_score, b.first_epoch_score);
    EXPECT_EQ(a.parent_id, b.parent_id);
    EXPECT_EQ(a.ckpt_key, b.ckpt_key);
    EXPECT_EQ(a.param_count, b.param_count);
    EXPECT_EQ(a.tensors_transferred, b.tensors_transferred);
    EXPECT_EQ(a.values_transferred, b.values_transferred);
    EXPECT_DOUBLE_EQ(a.train_seconds, b.train_seconds);
    EXPECT_DOUBLE_EQ(a.ckpt_read_cost, b.ckpt_read_cost);
    EXPECT_DOUBLE_EQ(a.ckpt_write_cost, b.ckpt_write_cost);
    EXPECT_EQ(a.ckpt_bytes, b.ckpt_bytes);
    EXPECT_DOUBLE_EQ(a.ckpt_write_charged, b.ckpt_write_charged);
    EXPECT_DOUBLE_EQ(a.ckpt_available_at, b.ckpt_available_at);
    EXPECT_DOUBLE_EQ(a.virtual_start, b.virtual_start);
    EXPECT_DOUBLE_EQ(a.virtual_finish, b.virtual_finish);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.attempt, b.attempt);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_DOUBLE_EQ(a.retry_seconds, b.retry_seconds);
    EXPECT_EQ(a.transfer_fallback, b.transfer_fallback);
  }
}

TEST(TraceIo, LegacyTraceDefaultsFirstEpochScoreToFinal) {
  // V2 header (24 columns, pre-first_epoch_score).
  const std::string text =
      "# swtnas trace, num_workers=1, makespan=1\n"
      "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
      "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
      "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
      "ckpt_available_at,virtual_start,virtual_finish,worker,"
      "attempt,faults,retries,retry_seconds,transfer_fallback\n"
      "0,1,0.625,-1,ck-0,10,0,0,1,0,0,0,0,0,0,1,0,1,0,0,0,0,0,0\n";
  std::stringstream ss(text);
  const Trace restored = read_trace_csv(ss);
  ASSERT_EQ(restored.records.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.records[0].first_epoch_score, 0.625);
}

// A corrupt cell must be reported with its file line and column name, not
// as a bare std::invalid_argument out of std::stod.
TEST(TraceIo, CorruptCellReportsLineAndColumn) {
  std::stringstream out;
  Trace t;
  EvalRecord r;
  r.id = 3;
  t.records.push_back(r);
  write_trace_csv(out, t);
  std::string text = out.str();
  const auto pos = text.find("3,,0");  // id,arch,score of the only data row
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "3,,xy");  // score becomes "xy"
  std::stringstream in(text);
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 'score'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"xy\""), std::string::npos) << msg;
  }
}

TEST(TraceIo, TrailingGarbageInNumericCellIsRejected) {
  std::stringstream out;
  Trace t;
  EvalRecord r;
  r.id = 3;
  t.records.push_back(r);
  write_trace_csv(out, t);
  std::string text = out.str();
  const auto pos = text.find("\n3,");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "\n3x,");  // id becomes "3x": stol would accept the prefix
  std::stringstream in(text);
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("column 'id'"), std::string::npos) << msg;
  }
}

TEST(TraceIo, CorruptArchOpReportsArchColumn) {
  const std::string text =
      "# swtnas trace, num_workers=1, makespan=1\n"
      "id,arch,score,parent_id,ckpt_key,param_count,tensors_transferred,"
      "values_transferred,train_seconds,transfer_seconds,ckpt_read_cost,"
      "ckpt_write_cost,ckpt_bytes,ckpt_write_charged,ckpt_read_wait,"
      "ckpt_available_at,virtual_start,virtual_finish,worker\n"
      "0,1|oops|3,0.5,-1,ck-0,10,0,0,1,0,0,0,0,0,0,1,0,1,0\n";
  std::stringstream in(text);
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("column 'arch'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(TraceIo, CorruptPreambleValueReportsKey) {
  std::stringstream in("# swtnas trace, num_workers=two, makespan=0\n");
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected read_trace_csv to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("num_workers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"two\""), std::string::npos) << msg;
  }
}

TEST(TraceIo, RejectsMissingPreamble) {
  std::stringstream ss("id,arch\n1,2\n");
  EXPECT_THROW((void)read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream ss("# swtnas trace, num_workers=1, makespan=0\nwrong,header\n");
  EXPECT_THROW((void)read_trace_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsShortRows) {
  std::stringstream out;
  write_trace_csv(out, Trace{});
  std::string text = out.str();
  text += "1,2,3\n";
  std::stringstream in(text);
  EXPECT_THROW((void)read_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_csv(std::string("/nonexistent/trace.csv")),
               std::runtime_error);
}

TEST(TraceIo, TruncatedFinalRowYieldsCleanPrefix) {
  // A process killed mid-write tears the final row; the crash-tolerant
  // reader drops it, returns the intact prefix and raises the flag.
  const Trace original = sample_trace();
  std::ostringstream out;
  write_trace_csv(out, original);
  std::string text = out.str();
  ASSERT_EQ(text.back(), '\n');
  text.resize(text.size() - 25);  // rip bytes off the final row

  std::istringstream in(text);
  bool truncated = false;
  const Trace restored = read_trace_csv(in, &truncated);
  EXPECT_TRUE(truncated);
  ASSERT_EQ(restored.records.size(), original.records.size() - 1);
  for (std::size_t i = 0; i < restored.records.size(); ++i)
    EXPECT_EQ(restored.records[i].id, original.records[i].id);
}

TEST(TraceIo, IntactTraceDoesNotRaiseTruncationFlag) {
  const Trace original = sample_trace();
  std::ostringstream out;
  write_trace_csv(out, original);
  std::istringstream in(out.str());
  bool truncated = true;
  const Trace restored = read_trace_csv(in, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(restored.records.size(), original.records.size());
}

TEST(TraceIo, TruncationToleranceStillThrowsWithoutTheFlag) {
  // Null `truncated` keeps the historical strict behaviour.
  const Trace original = sample_trace();
  std::ostringstream out;
  write_trace_csv(out, original);
  std::string text = out.str();
  text.resize(text.size() - 25);
  std::istringstream in(text);
  EXPECT_THROW((void)read_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, InteriorCorruptionThrowsEvenWithTheFlag) {
  // A malformed row with intact rows after it is real corruption, not a
  // crash artifact — loud, never silently shortened.
  const Trace original = sample_trace();
  std::ostringstream out;
  write_trace_csv(out, original);
  std::string text = out.str();
  const auto second_last = text.rfind('\n', text.rfind('\n', text.size() - 2) - 1);
  ASSERT_NE(second_last, std::string::npos);
  text.replace(second_last + 1, 5, "#####");
  std::istringstream in(text);
  bool truncated = false;
  EXPECT_THROW((void)read_trace_csv(in, &truncated), std::runtime_error);
}

TEST(TraceIo, ArchCodecIsStrict) {
  EXPECT_EQ(encode_arch({3, 0, 17}), "3|0|17");
  EXPECT_EQ(encode_arch({}), "");
  EXPECT_EQ(decode_arch("3|0|17"), (ArchSeq{3, 0, 17}));
  EXPECT_EQ(decode_arch(""), ArchSeq{});
  for (const char* bad : {"1||2", "1|2|", "|1", " 1", "+1", "1x", "1|oops"})
    EXPECT_FALSE(decode_arch(bad).has_value()) << bad;
}

}  // namespace
}  // namespace swt
