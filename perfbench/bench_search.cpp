// Seeded end-to-end benchmark of whole NAS searches, driven through the
// public API (make_app, run_nas, CheckpointStore).  See README.md for the
// workloads, the metrics and the layer each metric belongs to.
//
//   swtnas_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// A run is a fixed number of distinct searches whose seeds derive from
// --seed (the same --seed always yields the same sequence).  The number is
// the workload's searches per second of budget times S, so every run with
// the same S does the same work however fast the build is; the rates are
// sized so a run takes about S seconds on the 4-core development host.  One
// NAS seed's searches can cost several times another's, because evolution
// settles on larger or smaller architectures; many short searches per run
// average that out.
//
// --trace 0 measures the end-to-end metrics with the metrics registry and
// the span tracer off.  --trace 1 runs the first half of those searches
// twice, untraced and then traced, reports the per-layer ledger of the
// traced runs and the tracing overhead against the untraced ones, and
// writes every span to .bench_build/perfbench-out/spans-<workload>-<seed>.json.
//
// Output checks (exit code 1 when one fails): every search returns exactly
// the requested number of records with finite scores and no lost, crashed
// or fallen-back evaluation; every re-run of a search seed in the
// invocation reproduces the first run's trace CSV byte for byte (traced
// against untraced in --trace 1; in both modes, untimed, the cheapest
// search re-run at eval_parallelism nproc and at 1, the repository's
// determinism contract).  The last stdout line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "tensor/kernels.hpp"

namespace fs = std::filesystem;
using namespace swt;

namespace {

struct Workload {
  std::string_view name;
  AppId app;
  TransferMode mode;
  /// --bank + --run-dir: checkpoints as disk chunks, fsynced journal.
  bool durable;
  long evals;  // per search
  /// Searches per second of --seconds: sized so a run takes about that long
  /// on the development host.
  double searches_per_s;
};

// Why these three, and why these search sizes: README.md.
constexpr std::array<Workload, 3> kWorkloads{{
    {"cifar-lcs", AppId::kCifar, TransferMode::kLCS, false, 60, 0.5},
    {"uno-baseline", AppId::kUno, TransferMode::kNone, false, 100, 3.0},
    {"nt3-lcs-durable", AppId::kNt3, TransferMode::kLCS, true, 30, 0.8},
}};

constexpr int kVirtualWorkers = 8;
constexpr double kFixedTrainSeconds = 1.0;
constexpr std::size_t kTopK = 10;
/// Set-ups timed per run for setup_s, spread evenly between the searches.
/// The development host's virtual CPUs change speed by up to half from one
/// moment to the next (they share cores with other guests), and a set-up
/// lasts about a millisecond, so set-ups timed back to back all catch the
/// same state: their median read 0.53 or 0.83 ms on uno-baseline depending
/// on the moment.  Spread over the run, they sample it.
constexpr long kSetupSamples = 90;
/// Span files and the durable workload's run directories, relative to the
/// working directory (the repository root when started by run.py).
const fs::path kOutDir = ".bench_build/perfbench-out";

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: swtnas_perfbench --workload cifar-lcs|uno-baseline|nt3-lcs-durable"
               " --seed N --seconds S --trace 0|1 [--smoke]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<bool> trace;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string val = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == val) opt.workload = &w;
      if (opt.workload == nullptr) usage("unknown workload " + val);
    } else if (arg == "--seed") {
      seed = parse_u64(val);
      if (!seed) usage("bad --seed " + val);
    } else if (arg == "--seconds") {
      seconds = parse_double(val);
      if (!seconds || *seconds <= 0.0) usage("bad --seconds " + val);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      trace = val == "1";
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (opt.workload == nullptr || !seed || !seconds || !trace)
    usage("--workload, --seed, --seconds and --trace are required");
  opt.seed = *seed;
  opt.seconds = *seconds;
  opt.trace = *trace;
  return opt;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::size_t dir_bytes(const fs::path& dir) {
  std::size_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer totals over the traced searches of a run: spans the evaluator
/// emits (`evaluate <id>` with `train`, `transfer` and `checkpoint` inside),
/// the benchmark's own `bench.*` spans, the metrics registry, the trace and
/// the store.
struct Ledger {
  double search_s = 0.0;       // bench.run_nas span
  double eval_busy_s = 0.0;    // sum of evaluate spans
  double eval_cover_s = 0.0;   // union of evaluate spans
  double train_s = 0.0;
  double transfer_s = 0.0;
  double checkpoint_s = 0.0;
  double get_s = 0.0;          // bench.ckpt_get spans (parent-key replay)
  double get_calls = 0.0;
  double conv_s = 0.0, conv_calls = 0.0, conv_flops = 0.0;
  double gemm_s = 0.0, gemm_calls = 0.0, gemm_flops = 0.0;
  double pool_busy_s = 0.0;
  double forward_s = 0.0, backward_s = 0.0, optimizer_s = 0.0, batches = 0.0;
  double values_copied = 0.0;
  double transfer_hits = 0.0;
  double records = 0.0;
  double dispatch_instants = 0.0;  // distinct virtual_start values
  double bytes_written = 0.0, bytes_read = 0.0;
  double dedup_logical = 0.0, dedup_unique = 0.0;
  double virtual_io_s = 0.0, virtual_busy_s = 0.0, virtual_capacity_s = 0.0;
  double run_dir_bytes = 0.0;
};

/// One completed search and what the benchmark measured around it.
struct Search {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long evals = 0;
  long attempted = 0;
  long failed = 0;
  double makespan_s = 0.0;
  double top10_mean = 0.0;
  long nonfinite_scores = 0;
  std::string csv;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)), w_(*opt_.workload) {
    evals_ = opt_.smoke ? 24 : w_.evals;
    searches_ = std::max(1L, std::lround(w_.searches_per_s * opt_.seconds));
    const unsigned hw = std::thread::hardware_concurrency();
    nproc_ = hw == 0 ? 1 : static_cast<int>(hw);
    work_dir_ = kOutDir / ("work-" + std::string(w_.name) + "-" +
                                std::to_string(static_cast<long>(getpid())));
  }

  int run();

 private:
  /// The i-th search seed of this run; a pure function of --seed.
  [[nodiscard]] std::uint64_t search_seed(int i) const {
    return mix64(opt_.seed, static_cast<std::uint64_t>(i)) % 1000000007ULL;
  }
  /// make_app plus, on the durable workload, a fresh run directory: what a
  /// user sets up before calling run_nas.
  [[nodiscard]] AppConfig set_up(std::uint64_t seed, const fs::path& run_dir) const;
  /// One search; traced when `ledger` is non-null, which it accumulates.
  Search run_one(std::uint64_t seed, int parallelism, Ledger* ledger);
  void take_ledger(Ledger& l, const Search& s, const NasRun& run, std::size_t run_dir_bytes);
  void check(const Search& s);
  void expect_same(const Search& first, const Search& again, const std::string& how);
  [[nodiscard]] MetricMap ledger_metrics(const Ledger& t, double searches);
  void print_result(const MetricMap& metrics) const;

  Options opt_;
  const Workload& w_;
  long evals_ = 0;
  long searches_ = 0;
  int nproc_ = 1;
  fs::path work_dir_;
  std::vector<std::string> errors_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<TraceEvent> spans_;  // every traced search's spans, for the file
};

AppConfig Bench::set_up(std::uint64_t seed, const fs::path& run_dir) const {
  AppConfig app = make_app(w_.app, seed);
  if (w_.durable) {
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
  }
  return app;
}

Search Bench::run_one(std::uint64_t seed, int parallelism, Ledger* ledger) {
  const bool traced = ledger != nullptr;
  set_metrics_enabled(traced);
  SpanTracer& tracer = SpanTracer::global();
  tracer.set_enabled(traced);
  if (traced) {
    metrics().reset();
    tracer.clear();
    ThreadPool::global().reset_stats();
  }

  Search s;
  s.seed = seed;
  const fs::path run_dir = work_dir_ / ("run-" + std::to_string(seed));
  const AppConfig app = [&] {
    const ScopedSpan span("bench.make_app", "bench");
    return set_up(seed, run_dir);
  }();

  NasRunConfig cfg;
  cfg.mode = w_.mode;
  cfg.n_evals = evals_;
  cfg.seed = seed;
  cfg.cluster.num_workers = kVirtualWorkers;
  cfg.cluster.eval_parallelism = parallelism;
  cfg.cluster.fixed_train_seconds = kFixedTrainSeconds;
  if (w_.durable) {
    cfg.bank = true;
    cfg.run_dir = run_dir;
  }

  const double cpu0 = cpu_seconds();
  WallTimer wall;
  NasRun run;
  {
    const ScopedSpan span("bench.run_nas", "bench");
    run = run_nas(app, cfg);
  }
  s.wall_s = wall.seconds();
  s.cpu_s = cpu_seconds() - cpu0;

  const Trace& trace = run.trace;
  s.evals = static_cast<long>(trace.records.size());
  s.attempted = s.evals + trace.lost_evaluations + trace.crashed_attempts;
  s.failed = trace.lost_evaluations + trace.crashed_attempts + trace.transfer_fallbacks;
  s.makespan_s = trace.makespan;
  const std::vector<EvalRecord> best = top_k(trace, kTopK);
  for (const EvalRecord& r : best) s.top10_mean += r.score;
  if (!best.empty()) s.top10_mean /= static_cast<double>(best.size());
  for (const EvalRecord& r : trace.records)
    if (!std::isfinite(r.score)) ++s.nonfinite_scores;
  std::ostringstream csv;
  write_trace_csv(csv, trace);
  s.csv = csv.str();

  if (traced) take_ledger(*ledger, s, run, w_.durable ? dir_bytes(run_dir) : 0);
  run.store.reset();
  if (w_.durable) fs::remove_all(run_dir);
  set_metrics_enabled(false);
  tracer.set_enabled(false);
  attempted_ += s.attempted;
  failed_ += s.failed;
  return s;
}

void Bench::take_ledger(Ledger& l, const Search& s, const NasRun& run,
                        std::size_t run_dir_bytes) {
  const MetricsSnapshot snap = metrics().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto gauge = [&](const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  const auto hist_sum = [&](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.sum;
  };
  l.conv_s += gauge("tensor.conv_seconds");
  l.conv_calls += counter("tensor.conv_total");
  l.conv_flops += counter("tensor.conv_flops_total");
  l.gemm_s += gauge("tensor.matmul_seconds");
  l.gemm_calls += counter("tensor.matmul_total");
  l.gemm_flops += counter("tensor.matmul_flops_total");
  // The kernels' own pool.  Evaluations on the eval pool run their kernels
  // serially, so this stays near 0 while eval_parallelism > 1.
  for (const ThreadStats& ts : ThreadPool::global().stats()) l.pool_busy_s += ts.busy_seconds;
  l.forward_s += hist_sum("train.forward_seconds");
  l.backward_s += hist_sum("train.backward_seconds");
  l.optimizer_s += hist_sum("train.step_seconds");
  l.batches += counter("train.batches_total");
  l.bytes_read += counter("ckpt.bytes_read_total");
  l.bytes_written += static_cast<double>(run.store->total_bytes_written());
  if (const WeightBank* bank = run.store->bank(); bank != nullptr) {
    const BankStats bs = bank->stats();
    l.dedup_logical += static_cast<double>(bs.logical_bytes_written);
    l.dedup_unique += static_cast<double>(bs.unique_bytes_written);
  }
  l.run_dir_bytes += static_cast<double>(run_dir_bytes);

  // Virtual-time facts and transfer outcomes, from the trace itself.
  const Trace& trace = run.trace;
  std::map<double, int> starts;
  std::map<long, const std::string*> key_of;
  for (const EvalRecord& r : trace.records) {
    ++starts[r.virtual_start];
    key_of[r.id] = &r.ckpt_key;
    l.values_copied += static_cast<double>(r.values_transferred);
    if (r.values_transferred > 0) l.transfer_hits += 1.0;
    l.virtual_io_s += r.ckpt_read_cost + r.ckpt_read_wait + r.ckpt_write_charged;
    l.virtual_busy_s += r.virtual_finish - r.virtual_start;
  }
  l.records += static_cast<double>(trace.records.size());
  l.dispatch_instants += static_cast<double>(starts.size());
  l.virtual_capacity_s += trace.makespan * static_cast<double>(trace.num_workers);

  // Replay every parent read of the search against the returned store.
  for (const EvalRecord& r : trace.records) {
    if (r.parent_id < 0) continue;
    const auto it = key_of.find(r.parent_id);
    if (it == key_of.end() || it->second->empty()) continue;
    bool ok = false;
    {
      const ScopedSpan span("bench.ckpt_get", "bench");
      ok = run.store->try_get(*it->second).has_value();
    }
    if (!ok) errors_.push_back("seed " + std::to_string(s.seed) + ": parent checkpoint " +
                               *it->second + " is not readable after the search");
  }

  // Span ledger.  Only wall-clock spans count; the virtual-cluster tracks
  // (pid kTraceVirtualPid) are in virtual microseconds.
  std::vector<TraceEvent> events = SpanTracer::global().events();
  std::vector<std::pair<double, double>> evaluate;
  for (const TraceEvent& e : events) {
    if (e.ph != 'X' || e.pid != kTraceWallPid) continue;
    const double dur = e.dur_us * 1e-6;
    if (e.name.starts_with("evaluate ")) {
      l.eval_busy_s += dur;
      evaluate.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    } else if (e.name == "train" && e.cat == "train") {
      l.train_s += dur;
    } else if (e.name == "transfer") {
      l.transfer_s += dur;
    } else if (e.name == "checkpoint") {
      l.checkpoint_s += dur;
    } else if (e.name == "bench.run_nas") {
      l.search_s += dur;
    } else if (e.name == "bench.ckpt_get") {
      l.get_s += dur;
      l.get_calls += 1.0;
    }
  }
  std::sort(evaluate.begin(), evaluate.end());
  double cover_end = -1e300;
  for (const auto& [lo, hi] : evaluate) {
    const double from = std::max(lo, cover_end);
    if (hi > from) l.eval_cover_s += (hi - from) * 1e-6;
    cover_end = std::max(cover_end, hi);
  }
  spans_.insert(spans_.end(), std::make_move_iterator(events.begin()),
                std::make_move_iterator(events.end()));
  SpanTracer::global().clear();
}

void Bench::check(const Search& s) {
  const std::string at = std::string(w_.name) + " seed " + std::to_string(s.seed) + ": ";
  if (s.evals != evals_)
    errors_.push_back(at + std::to_string(s.evals) + " records, expected " +
                      std::to_string(evals_));
  if (s.failed != 0)
    errors_.push_back(at + std::to_string(s.failed) + " failed evaluations on a fault-free run");
  if (s.nonfinite_scores != 0)
    errors_.push_back(at + std::to_string(s.nonfinite_scores) + " non-finite scores");
}

void Bench::expect_same(const Search& first, const Search& again, const std::string& how) {
  if (first.csv == again.csv) return;
  errors_.push_back(std::string(w_.name) + " seed " + std::to_string(first.seed) + ": " + how +
                    " gives trace digest " + hex(fnv1a(again.csv)) + ", the first run " +
                    hex(fnv1a(first.csv)));
}

MetricMap Bench::ledger_metrics(const Ledger& t, double searches) {
  // Extensive values are per search; ratios are taken over the totals.
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double k = searches;
  const double other_s = t.eval_busy_s - t.train_s - t.transfer_s - t.checkpoint_s;
  MetricMap m;
  m["cluster.eval_concurrency"] = {ratio(t.eval_busy_s, t.search_s), "ratio"};
  m["cluster.dispatch_batch_mean"] = {ratio(t.records, t.dispatch_instants), "count"};
  m["cluster.scheduler_self_s"] = {(t.search_s - t.eval_cover_s) / k, "s"};
  m["cluster.eval_busy_s"] = {t.eval_busy_s / k, "s"};
  m["cluster.worker_idle_share"] = {1.0 - ratio(t.virtual_busy_s, t.virtual_capacity_s), "ratio"};
  m["tensor.conv_s"] = {t.conv_s / k, "s"};
  m["tensor.conv_calls"] = {t.conv_calls / k, "count"};
  m["tensor.conv_gflops"] = {ratio(t.conv_flops, t.conv_s) * 1e-9, "GFLOP/s"};
  m["tensor.gemm_s"] = {t.gemm_s / k, "s"};
  m["tensor.gemm_calls"] = {t.gemm_calls / k, "count"};
  m["tensor.gemm_gflops"] = {ratio(t.gemm_flops, t.gemm_s) * 1e-9, "GFLOP/s"};
  m["tensor.pool_busy_s"] = {t.pool_busy_s / k, "s"};
  m["nn.train_s"] = {t.train_s / k, "s"};
  m["nn.forward_s"] = {t.forward_s / k, "s"};
  m["nn.backward_s"] = {t.backward_s / k, "s"};
  m["nn.optimizer_s"] = {t.optimizer_s / k, "s"};
  m["nn.batches"] = {t.batches / k, "count"};
  m["core.transfer_s"] = {t.transfer_s / k, "s"};
  m["core.values_copied"] = {t.values_copied / k, "count"};
  m["core.transfer_hit_share"] = {ratio(t.transfer_hits, t.records), "ratio"};
  m["ckpt.encode_put_s"] = {t.checkpoint_s / k, "s"};
  m["ckpt.get_s"] = {t.get_s / k, "s"};
  m["ckpt.get_calls"] = {t.get_calls / k, "count"};
  m["ckpt.bytes_written"] = {t.bytes_written / k, "B"};
  m["ckpt.bytes_read"] = {t.bytes_read / k, "B"};
  // A flat store keeps every logical byte: ratio 1, as the bank defines it.
  m["ckpt.dedup_ratio"] = {t.dedup_unique > 0.0 ? t.dedup_logical / t.dedup_unique : 1.0,
                           "ratio"};
  m["ckpt.virtual_io_share"] = {ratio(t.virtual_io_s, t.virtual_busy_s), "ratio"};
  m["exp.run_dir_bytes"] = {t.run_dir_bytes / k, "B"};
  m["ledger.other_s"] = {other_s / k, "s"};

  // Ledger sanity: other_s closes the identity train + transfer +
  // checkpoint + other = evaluate by construction, so only its sign can
  // fail; a negative remainder means a child span escaped its evaluate parent.
  if (other_s < -1e-6 * std::max(1.0, t.eval_busy_s))
    errors_.push_back(std::string(w_.name) + ": negative ledger remainder (train " +
                      json_number(t.train_s) + " + transfer " + json_number(t.transfer_s) +
                      " + checkpoint " + json_number(t.checkpoint_s) + " + other " +
                      json_number(other_s) + " vs evaluate " + json_number(t.eval_busy_s) + ")");
  return m;
}

void Bench::print_result(const MetricMap& metrics) const {
  std::ostringstream os;
  os << "{\"correct\": " << (errors_.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << json_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Bench::run() {
  kernels::set_compute_threads(nproc_);
  const long timed_searches = opt_.trace ? (searches_ + 1) / 2 : searches_;
  std::cout << "workload " << w_.name << "  seed " << opt_.seed << "  trace " << opt_.trace
            << "  searches " << timed_searches << "  evals/search " << evals_ << "  workers "
            << kVirtualWorkers << "  eval_parallelism = compute threads = " << nproc_ << "\n";

  // The timed searches.  In trace mode each seed runs untraced and then
  // traced, so the overhead compares equal work.
  double wall = 0.0, evals = 0.0, cpu = 0.0, top10 = 0.0, makespan = 0.0, rss_mb = 0.0;
  double traced_wall = 0.0, traced_evals = 0.0;
  Ledger ledger;
  Search cheapest;  // re-run untimed below
  std::vector<double> setups;
  for (int i = 0; i < timed_searches; ++i) {
    while (static_cast<long>(setups.size()) * timed_searches < (i + 1) * kSetupSamples) {
      const WallTimer timer;
      const AppConfig app =
          set_up(search_seed(static_cast<int>(setups.size())), work_dir_ / "setup");
      setups.push_back(timer.seconds());
    }
    Search s = run_one(search_seed(i), nproc_, nullptr);
    check(s);
    wall += s.wall_s;
    cpu += s.cpu_s;
    evals += static_cast<double>(s.evals);
    top10 += s.top10_mean;
    makespan += s.makespan_s;
    rss_mb += peak_rss_mb();
    std::cout << "  seed " << s.seed << ": " << s.evals << " evals in " << s.wall_s
              << " s, trace digest " << hex(fnv1a(s.csv)) << ", makespan " << s.makespan_s
              << " virtual s, top-10 mean " << s.top10_mean << ", peak RSS so far "
              << peak_rss_mb() << " MB\n";
    if (opt_.trace) {
      const Search t = run_one(s.seed, nproc_, &ledger);
      check(t);
      expect_same(s, t, "the traced re-run");
      traced_wall += t.wall_s;
      traced_evals += static_cast<double>(t.evals);
    }
    if (i == 0 || s.wall_s < cheapest.wall_s) cheapest = std::move(s);
  }

  // Untimed repeats of the cheapest search: at the same eval_parallelism,
  // then serially, the repository's determinism contract.  Both must
  // reproduce the timed run's trace byte for byte.
  const std::size_t errors_before = errors_.size();
  expect_same(cheapest, run_one(cheapest.seed, nproc_, nullptr),
              "a repeat at eval_parallelism " + std::to_string(nproc_));
  expect_same(cheapest, run_one(cheapest.seed, 1, nullptr),
              "eval_parallelism 1 (against " + std::to_string(nproc_) + ")");
  std::cout << "determinism: seed " << cheapest.seed << " repeated at eval_parallelism "
            << nproc_ << " and 1"
            << (errors_.size() == errors_before ? ": identical traces\n"
                                                : ": see CHECK FAILED\n");

  const double n = static_cast<double>(timed_searches);
  const double evals_per_s = evals / wall;
  std::cout << timed_searches << " searches, " << evals << " evals in " << wall
            << " s of search wall = " << evals_per_s << " evals/s; failed " << failed_ << " of "
            << attempted_ << " attempted evals\n";

  MetricMap out;
  if (!opt_.trace) {
    out["evals_per_s"] = {evals_per_s, "1/s"};
    out["cpu_s_per_eval"] = {cpu / evals, "s"};
    out["setup_s"] = {median(setups), "s"};
    out["top10_mean_score"] = {top10 / n, "score"};
    out["peak_rss_mb"] = {rss_mb / n, "MB"};
    out["virtual_makespan_s"] = {makespan / n, "virtual_s"};
  } else {
    out = ledger_metrics(ledger, n);
    const double overhead = 1.0 - (traced_evals / traced_wall) / evals_per_s;
    out["trace.overhead_share"] = {overhead, "ratio"};

    const auto v = [&](const char* name) { return out[name].first; };
    std::cout << "ledger per search (s): train " << v("nn.train_s") << " + transfer "
              << v("core.transfer_s") << " + checkpoint " << v("ckpt.encode_put_s") << " + other "
              << v("ledger.other_s") << " = evaluate " << v("cluster.eval_busy_s")
              << "; scheduler self " << v("cluster.scheduler_self_s")
              << "; trace.overhead_share " << overhead << "\n";

    fs::create_directories(kOutDir);
    const fs::path span_file = kOutDir / ("spans-" + std::string(w_.name) + "-" +
                                               std::to_string(opt_.seed) + ".json");
    write_trace_json(span_file.string(), spans_);
    std::cout << "spans: " << spans_.size() << " events in " << span_file.string() << "\n";
  }

  std::error_code ec;
  fs::remove_all(work_dir_, ec);
  for (const std::string& e : errors_) std::cerr << "CHECK FAILED: " << e << "\n";
  print_result(out);
  return errors_.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  set_log_level(LogLevel::kError);
  try {
    Bench bench(std::move(opt));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
