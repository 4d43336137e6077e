// Command-line NAS driver: run any app x scheme combination and export the
// trace as CSV for offline analysis (the DeepHyper-results-file workflow).
//
//   $ ./nas_cli --app cifar --mode lcs --evals 100 --workers 16
//               --seed 3 --out trace.csv [--async-ckpt] [--compress quant8]
//               [--metrics-out metrics.json] [--trace-out spans.json]
//               [--log-level warn]
//
// Prints a run summary (best score, makespan, checkpoint traffic) and, with
// --out, writes the full per-candidate trace.  --metrics-out snapshots the
// process metrics registry (JSON, or CSV when the path ends in .csv);
// --trace-out records span timelines and writes Chrome/Perfetto trace_event
// JSON with one track per virtual worker.  --events-out streams NDJSON
// lifecycle events (tailable mid-run; "-" targets stderr), --progress paints
// a rate-limited heartbeat line on stderr, and --registry-dir appends the
// run summary to <dir>/registry.ndjson for compare_runs.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "exp/apps.hpp"
#include "exp/journal.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/series.hpp"
#include "obs/span_tracer.hpp"
#include "serve/obs_server.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace swt;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--app cifar|mnist|nt3|uno] [--mode baseline|lp|lcs]\n"
               "       [--evals N] [--workers N] [--seed N] [--population N]\n"
               "       [--sample N] [--out trace.csv] [--async-ckpt]\n"
               "       [--compress none|fp16|quant8]\n"
               "       [--metrics-out file.json|file.csv] [--trace-out spans.json]\n"
               "       [--events-out events.ndjson|-] [--progress]\n"
               "       [--registry-dir DIR] [--fixed-train-seconds S]\n"
               "       [--compute-threads N] [--eval-parallelism N]\n"
               "       [--bank] [--bank-budget-mb N]\n"
               "       [--warm-start-from DIR] [--warm-start-k N]\n"
               "       [--log-level debug|info|warn|error|off]\n"
               "       [--mtbf S] [--straggler-rate P] [--straggler-mult M]\n"
               "       [--ckpt-fault-rate P] [--recovery S] [--max-attempts N]\n"
               "       [--run-dir DIR] [--resume] [--crash-after-evals N]\n"
               "       [--no-journal-fsync]\n"
               "       [--serve-port P] [--sample-interval-ms M] [--series-out F]\n"
               "       [--profile-out F.collapsed|F.json] [--profile-hz N]\n"
               "       [--stall-after-s S] [--inject-stall-after N] [--inject-stall-s S]\n"
               "\n"
               "live telemetry plane (all off by default; see DESIGN.md s10):\n"
               "  --serve-port P      serve GET /metrics /healthz /status /series on\n"
               "                      127.0.0.1:P while the search runs (0 = pick a\n"
               "                      free port; it is printed at startup).  Enables\n"
               "                      the sampler and health watchdog.\n"
               "  --sample-interval-ms M  time-series sampling period (default 250)\n"
               "  --series-out F      write the sampled time series as CSV at exit\n"
               "                      (also enables the sampler without --serve-port)\n"
               "  --stall-after-s S   watchdog: flag the run stalled (503 /healthz)\n"
               "                      after S wall seconds without a completed\n"
               "                      evaluation (default 30)\n"
               "  --inject-stall-after N  testing: freeze the scheduler thread (wall\n"
               "                      clock only; the virtual timeline and trace are\n"
               "                      untouched) once N evaluations have completed\n"
               "  --inject-stall-s S  duration of that injected stall (default 5)\n"
               "\n"
               "weight bank (see DESIGN.md \"Weight bank\"):\n"
               "  --bank              price checkpoint I/O by the bank's traffic: a put\n"
               "                      moves its manifest plus first-seen chunks and a\n"
               "                      provider read only its manifest.  Without it\n"
               "                      every put and read moves the full blob (the\n"
               "                      paper's price); the bank stores them either way\n"
               "  --bank-budget-mb N  LRU-evict resident chunks above N MiB (0 =\n"
               "                      unlimited), with or without --bank; evicted\n"
               "                      providers fall back to random init, like a\n"
               "                      corrupt checkpoint\n"
               "  --warm-start-from DIR  seed this run's store and evolution population\n"
               "                      with the top checkpoints of the previous run in\n"
               "                      DIR (its trace.csv + ckpts/), so early\n"
               "                      generations fetch trained tensors instead of\n"
               "                      random init; needs a transfer mode\n"
               "  --warm-start-k N    how many checkpoints to seed (default: the\n"
               "                      evolution population size)\n"
               "\n"
               "crash recovery (see DESIGN.md \"Durability contract\"):\n"
               "  --run-dir DIR       durable run: checkpoints in DIR/ckpts, config\n"
               "                      manifest + write-ahead journal in DIR, final\n"
               "                      trace in DIR/trace.csv.  Survives SIGKILL.\n"
               "  --resume            continue a killed run in --run-dir: journaled\n"
               "                      evaluations skip training and the final trace is\n"
               "                      byte-identical to an uninterrupted run.  Config\n"
               "                      flags default to the manifest; changing one that\n"
               "                      affects behaviour refuses to resume.\n"
               "  --crash-after-evals N  deterministic crash injection: _exit(42) the\n"
               "                      instant the (N+1)-th fresh evaluation would be\n"
               "                      journaled (testing; pairs with --resume)\n"
               "  --no-journal-fsync  skip the per-record journal fsync (faster, but a\n"
               "                      power cut may cost re-training; kill-safe either\n"
               "                      way)\n"
               "\n"
               "observability:\n"
               "  --events-out F      stream NDJSON lifecycle events to F (\"-\" = stderr);\n"
               "                      tail -f the file to watch a running search\n"
               "  --progress          single-line heartbeat on stderr (evals done/total,\n"
               "                      best score, virtual time, in-flight workers)\n"
               "  --registry-dir DIR  append a run summary record to DIR/registry.ndjson\n"
               "                      (diff runs with compare_runs)\n"
               "  --fixed-train-seconds S  charge every epoch S virtual seconds instead of\n"
               "                      measured wall time (makes runs bit-reproducible)\n"
               "  --compute-threads N  output-tile owners for the blocked GEMM/conv kernels\n"
               "                      (default: SWT_THREADS env, else hardware threads;\n"
               "                      results are bit-identical for every value)\n"
               "  --eval-parallelism N train up to N same-instant evaluations on real\n"
               "                      threads (default 1 = serial; traces are byte-\n"
               "                      identical for every value; N>1 runs each eval's\n"
               "                      kernels serially, overriding --compute-threads\n"
               "                      inside those evals)\n"
               "\n"
               "fault injection (all off by default; see DESIGN.md):\n"
               "  --mtbf S            mean virtual seconds of compute between worker\n"
               "                      crashes (crashed evals are resubmitted)\n"
               "  --straggler-rate P  probability an evaluation lands on a straggler\n"
               "  --straggler-mult M  compute slowdown on straggler nodes (default 4)\n"
               "  --ckpt-fault-rate P per-try PFS read/write failure probability\n"
               "                      (retried with exponential backoff)\n"
               "  --recovery S        crashed-worker recovery time (default 30)\n"
               "  --max-attempts N    tries per proposal before it counts lost (default 3)\n";
  std::exit(2);
}

/// --progress heartbeat, fed by the event bus.  Repaints a single stderr
/// line at most every 100 ms of wall time (the run_finished event always
/// paints) so a multi-thousand-eval search stays readable over ssh.
class ProgressMeter {
 public:
  explicit ProgressMeter(long total) : total_(total) {}

  // Invoked from EventBus::emit under the bus lock; keep it allocation-light.
  void on_event(const Event& ev) {
    switch (ev.type) {
      case EventType::kEvalStarted: ++started_; break;
      case EventType::kEvalFinished: ++finished_; break;
      case EventType::kWorkerCrashed: ++crashed_; break;
      case EventType::kBestScoreImproved:
        for (const auto& [key, value] : ev.fields)
          if (key == "score" && value != "null") best_ = std::stod(value);
        break;
      default: break;
    }
    if (ev.virtual_s >= 0.0) virtual_s_ = ev.virtual_s;
    const auto now = std::chrono::steady_clock::now();
    if (ev.type != EventType::kRunFinished && now - last_paint_ < kMinRepaint) return;
    last_paint_ = now;
    paint();
  }

  void finish() {
    paint();
    std::cerr << '\n';
  }

 private:
  static constexpr auto kMinRepaint = std::chrono::milliseconds(100);

  void paint() const {
    std::ostringstream line;
    line << "\r[nas] " << finished_ << '/' << total_ << " evals  best=";
    if (best_ > -1e17)
      line << TableReport::cell(best_);
    else
      line << "n/a";
    line << "  vt=" << TableReport::cell(virtual_s_, 1) << "s  in-flight="
         << started_ - finished_ - crashed_ << "   ";
    std::cerr << line.str() << std::flush;
  }

  long total_;
  long started_ = 0;
  long finished_ = 0;
  long crashed_ = 0;
  double best_ = -1e18;
  double virtual_s_ = 0.0;
  std::chrono::steady_clock::time_point last_paint_{};
};

}  // namespace

int main(int argc, char** argv) try {
  AppId app_id = AppId::kMnist;
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 60;
  cfg.seed = 1;
  cfg.cluster.num_workers = 8;
  cfg.evolution = {.population_size = 16, .sample_size = 8};
  std::string out_path;
  std::string metrics_out;
  std::string trace_out;
  std::string events_out;
  std::string registry_dir;
  std::string series_out;
  std::string profile_out;
  int profile_hz = 0;  // 0 = off unless --profile-out is given (then 97)
  bool progress = false;
  int serve_port = -1;  // -1 = no server; 0 = ephemeral
  long sample_interval_ms = 250;
  double stall_after_s = 30.0;
  CompressionKind compression = CompressionKind::kNone;

  // --resume takes its configuration from the run directory's manifest, so
  // the flags parsed below start from the manifest values; any explicitly
  // passed flag that changes behaviour then shows up as a config-hash
  // mismatch and run_nas refuses the resume instead of silently diverging.
  std::string run_dir;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--run-dir" && i + 1 < argc) run_dir = argv[i + 1];
    else if (arg == "--resume") resume = true;
  }
  if (resume) {
    if (run_dir.empty()) {
      std::cerr << "error: --resume requires --run-dir\n";
      return 2;
    }
    const auto manifest = load_manifest(run_dir);
    if (manifest.has_value()) {
      const auto id = parse_app_id(manifest->app);
      if (!id.has_value()) {
        std::cerr << "error: manifest names unknown app '" << manifest->app << "'\n";
        return 2;
      }
      app_id = *id;
      cfg = manifest->cfg;
      compression = cfg.compression;
    }
    // No manifest: the killed run died before anything became durable, so
    // there is nothing to recover — the flags parsed below configure a
    // fresh start (run_nas still refuses a manifest-less journal as
    // corruption).  `--resume` is thereby idempotent over every kill point.
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Full-consumption numeric parsing (common/parse.hpp): "--mtbf oops" or
    // "--seed 7x" is a usage error with the offending flag named, not an
    // uncaught std::invalid_argument aborting the process.
    const auto reject = [&](const std::string& what) -> void {
      std::cerr << "error: " << arg << " expects " << what << "\n";
      usage(argv[0]);
    };
    const auto num_long = [&]() -> long {
      const std::string text = next();
      const auto v = parse_long(text);
      if (!v.has_value()) reject("an integer, got '" + text + "'");
      return *v;
    };
    const auto num_int = [&]() -> int {
      const std::string text = next();
      const auto v = parse_int(text);
      if (!v.has_value()) reject("an integer, got '" + text + "'");
      return *v;
    };
    const auto num_u64 = [&]() -> std::uint64_t {
      const std::string text = next();
      const auto v = parse_u64(text);
      if (!v.has_value()) reject("a non-negative integer, got '" + text + "'");
      return *v;
    };
    const auto known = [&](auto parsed) {
      if (!parsed.has_value()) usage(argv[0]);
      return *parsed;
    };
    const auto num_double = [&]() -> double {
      const std::string text = next();
      const auto v = parse_double(text);
      if (!v.has_value()) reject("a number, got '" + text + "'");
      return *v;
    };
    if (arg == "--app") app_id = known(parse_app_id(next()));
    else if (arg == "--mode") cfg.mode = known(parse_transfer_mode(next()));
    else if (arg == "--evals") cfg.n_evals = num_long();
    else if (arg == "--workers") cfg.cluster.num_workers = num_int();
    else if (arg == "--seed") cfg.seed = num_u64();
    else if (arg == "--population") cfg.evolution.population_size = num_int();
    else if (arg == "--sample") cfg.evolution.sample_size = num_int();
    else if (arg == "--out") out_path = next();
    else if (arg == "--metrics-out") metrics_out = next();
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--events-out") events_out = next();
    else if (arg == "--registry-dir") registry_dir = next();
    else if (arg == "--progress") progress = true;
    else if (arg == "--fixed-train-seconds") cfg.cluster.fixed_train_seconds = num_double();
    else if (arg == "--compute-threads") {
      std::string reason;
      const std::string text = next();
      const int n = kernels::parse_thread_count(text.c_str(), 0, &reason);
      if (n == 0) {
        std::cerr << "--compute-threads " << text << ": " << reason << "\n";
        usage(argv[0]);
      }
      if (!reason.empty()) log_warn("--compute-threads ", text, ": ", reason);
      kernels::set_compute_threads(n);
    }
    else if (arg == "--eval-parallelism") cfg.cluster.eval_parallelism = num_int();
    else if (arg == "--log-level") {
      const auto level = parse_log_level(next());
      if (!level.has_value()) usage(argv[0]);
      set_log_level(*level);
    }
    else if (arg == "--async-ckpt") cfg.cluster.async_checkpointing = true;
    else if (arg == "--compress") compression = known(parse_compression(next()));
    else if (arg == "--bank") cfg.bank = true;
    else if (arg == "--bank-budget-mb") {
      const std::string text = next();
      const auto bytes = parse_mib(text);
      if (!bytes.has_value())
        reject("a non-negative MiB count of at most " +
               std::to_string(std::numeric_limits<std::size_t>::max() >> 20) +
               ", got '" + text + "'");
      cfg.bank_budget_bytes = *bytes;
    }
    else if (arg == "--warm-start-from") cfg.warm_start_dir = next();
    else if (arg == "--warm-start-k") cfg.warm_start_k = num_int();
    else if (arg == "--mtbf") cfg.cluster.faults.mtbf_seconds = num_double();
    else if (arg == "--straggler-rate") cfg.cluster.faults.straggler_rate = num_double();
    else if (arg == "--straggler-mult")
      cfg.cluster.faults.straggler_multiplier = num_double();
    else if (arg == "--ckpt-fault-rate") {
      const double rate = num_double();
      cfg.cluster.faults.ckpt_read_fault_rate = rate;
      cfg.cluster.faults.ckpt_write_fault_rate = rate;
    }
    else if (arg == "--recovery") cfg.cluster.faults.worker_recovery_s = num_double();
    else if (arg == "--max-attempts") cfg.cluster.faults.max_attempts = num_int();
    else if (arg == "--run-dir") cfg.run_dir = next();
    else if (arg == "--resume") cfg.resume = true;
    else if (arg == "--crash-after-evals") cfg.journal_crash_after = num_long();
    else if (arg == "--no-journal-fsync") cfg.journal_fsync = false;
    else if (arg == "--serve-port") serve_port = num_int();
    else if (arg == "--sample-interval-ms") sample_interval_ms = num_long();
    else if (arg == "--series-out") series_out = next();
    else if (arg == "--profile-out") profile_out = next();
    else if (arg == "--profile-hz") profile_hz = num_int();
    else if (arg == "--stall-after-s") stall_after_s = num_double();
    else if (arg == "--inject-stall-after") {
      cfg.cluster.faults.stall_after_evals = num_long();
      if (cfg.cluster.faults.stall_wall_seconds <= 0.0)
        cfg.cluster.faults.stall_wall_seconds = 5.0;
    }
    else if (arg == "--inject-stall-s") cfg.cluster.faults.stall_wall_seconds = num_double();
    else usage(argv[0]);
  }
  if (cfg.journal_crash_after >= 0 && cfg.run_dir.empty()) {
    std::cerr << "error: --crash-after-evals requires --run-dir\n";
    return 2;
  }

  const AppConfig app = make_app(app_id, cfg.seed);
  std::cout << "app=" << app.name << " mode=" << to_string(cfg.mode)
            << " evals=" << cfg.n_evals << " workers=" << cfg.cluster.num_workers
            << " seed=" << cfg.seed << " async=" << cfg.cluster.async_checkpointing
            << " compress=" << to_string(compression)
            << " compute-threads=" << kernels::compute_threads()
            << " eval-parallelism=" << cfg.cluster.eval_parallelism << "\n";

  cfg.compression = compression;
  if (!trace_out.empty()) SpanTracer::global().set_enabled(true);

  EventBus& bus = EventBus::global();
  std::ofstream events_file;
  if (!events_out.empty()) {
    if (events_out == "-") {
      bus.set_stream(&std::cerr);
    } else {
      events_file.open(events_out, std::ios::trunc);
      if (!events_file) throw std::runtime_error("cannot open " + events_out);
      bus.set_stream(&events_file);
    }
  }
  ProgressMeter meter(cfg.n_evals);
  if (progress)
    bus.set_listener([&meter](const Event& ev) { meter.on_event(ev); });
  if (!events_out.empty() || progress) bus.set_enabled(true);

  // Live telemetry plane: watchdog + sampler + HTTP server, all optional
  // and all pure readers of telemetry state — the search itself never
  // blocks on any of them and the virtual timeline/RNG are untouched.
  const bool telemetry_on = serve_port >= 0 || !series_out.empty();
  std::unique_ptr<HealthWatchdog> watchdog;
  std::unique_ptr<TimeSeriesStore> series_store;
  std::unique_ptr<Sampler> sampler;
  std::unique_ptr<ObservabilityServer> server;
  if (telemetry_on) {
    bus.set_enabled(true);  // the watchdog's progress signal rides the bus
    watchdog = std::make_unique<HealthWatchdog>(
        HealthWatchdog::Config{.stall_after_s = stall_after_s});
    watchdog->attach(bus);
    series_store = std::make_unique<TimeSeriesStore>();
    Sampler::Config sampler_cfg;
    sampler_cfg.interval = std::chrono::milliseconds(sample_interval_ms);
    sampler = std::make_unique<Sampler>(*series_store, metrics(), sampler_cfg);
    // Poll on the sampling cadence so stall detection advances even when
    // nobody scrapes /healthz (poll() must never run under the bus lock).
    sampler->set_on_tick([&watchdog] { watchdog->poll(); });
    sampler->start();
    if (serve_port >= 0) {
      HttpServer::Config http_cfg;
      http_cfg.port = serve_port;
      server = std::make_unique<ObservabilityServer>(
          http_cfg, metrics(), series_store.get(), watchdog.get(),
          ObservabilityServer::StatusInfo{
              app.name + "-" + std::string(to_string(cfg.mode)) + "-s" +
                  std::to_string(cfg.seed),
              app.name, std::string(to_string(cfg.mode)), cfg.n_evals});
      server->start();
      std::cout << "telemetry: http://127.0.0.1:" << server->port()
                << " (/metrics /healthz /status /series /profile /criticalpath)\n";
    }
  }

  // Sampling CPU profiler: wall-clock-only instrumentation; the virtual
  // timeline and search RNG never see it (profiled and plain runs produce
  // byte-identical trace CSVs — CI cmp-gates this).
  const bool profiling_on = !profile_out.empty() || profile_hz > 0;
  const auto write_profile = [&] {
    if (profile_out.empty()) return;
    const prof::SymbolizedProfile sym =
        prof::symbolize(prof::CpuProfiler::global().snapshot());
    std::ofstream out(profile_out, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + profile_out);
    if (profile_out.size() >= 5 &&
        profile_out.compare(profile_out.size() - 5, 5, ".json") == 0) {
      prof::write_speedscope_json(out, sym, "nas_cli");
    } else {
      // Same self-describing header the /profile endpoint serves, so one
      // sniffer (analyze_trace, CI greps) handles both sources.
      out << "# swtnas cpu profile (collapsed stacks)\n"
          << "# hz " << prof::CpuProfiler::global().hz() << "\n"
          << "# samples " << sym.total_samples << "\n"
          << "# dropped " << sym.dropped_samples << "\n"
          << prof::to_collapsed(sym);
    }
  };
  if (profiling_on) {
    prof::register_current_thread("main");
    prof::ProfilerConfig prof_cfg;
    prof_cfg.hz = profile_hz > 0 ? profile_hz : 97;
    if (prof::CpuProfiler::global().start(prof_cfg)) {
      std::cout << "profiler: sampling registered threads at "
                << prof::CpuProfiler::global().hz() << " Hz\n";
      if (server != nullptr) server->set_profiler(&prof::CpuProfiler::global());
    } else {
      std::cerr << "warning: profiler unavailable: "
                << prof::CpuProfiler::global().last_error() << "\n";
    }
  }

  // SIGINT/SIGTERM: flush whatever telemetry outputs were requested, then
  // exit 128+sig (130 / 143).  The search thread keeps running while the
  // flush happens; everything written below is behind its own lock.
  const InterruptFlusher flusher([&] {
    bus.set_enabled(false);
    bus.set_listener(nullptr);
    bus.set_stream(nullptr);  // takes the bus lock: no more writers after this
    if (events_file.is_open()) events_file.flush();
    if (sampler != nullptr) {
      sampler->stop();
      sampler->tick();  // one final synchronous sample
    }
    if (!series_out.empty() && series_store != nullptr) {
      std::ofstream out(series_out, std::ios::trunc);
      if (out) write_series_csv(out, *series_store);
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out, std::ios::trunc);
      if (out) write_metrics_json(out, metrics().snapshot());
    }
    if (!trace_out.empty())
      write_trace_json(trace_out, SpanTracer::global().events());
    if (profiling_on) {
      prof::CpuProfiler::global().stop();
      write_profile();
    }
    if (server != nullptr) server->stop();
    std::cerr << "\n[nas] interrupted; telemetry flushed\n";
  });

  const auto wall_start = std::chrono::steady_clock::now();
  const NasRun run = run_nas(app, cfg);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (progress) meter.finish();
  if (profiling_on) prof::CpuProfiler::global().stop();
  if (sampler != nullptr) {
    sampler->stop();
    sampler->tick();  // capture the end-of-run gauge values
  }
  if (server != nullptr) server->stop();
  if (watchdog != nullptr) watchdog->detach();
  bus.set_enabled(false);
  bus.set_listener(nullptr);
  bus.set_stream(nullptr);
  if (!series_out.empty() && series_store != nullptr) {
    std::ofstream out(series_out, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + series_out);
    write_series_csv(out, *series_store);
    std::cout << "time series written to " << series_out << "\n";
  }

  const auto top = top_k(run.trace, 5);
  TableReport table({"rank", "arch", "score", "#params"});
  for (std::size_t i = 0; i < top.size(); ++i)
    table.add_row({std::to_string(i + 1), arch_to_string(top[i].arch),
                   TableReport::cell(top[i].score), std::to_string(top[i].param_count)});
  print_banner(std::cout, "top candidates");
  table.print(std::cout);

  std::cout << "\nmakespan            : " << TableReport::cell(run.trace.makespan, 2)
            << " virtual s\n"
            << "checkpoint overhead : "
            << TableReport::cell(run.trace.total_ckpt_overhead(), 2) << " virtual s\n"
            << "checkpoints stored  : " << run.store->count() << " ("
            << run.store->total_bytes_written() / 1024 << " KiB written)\n";
  const BankStats bs = run.store->bank()->stats();
  std::cout << "weight bank         : " << bs.chunk_count << " chunks, dedup ratio "
            << TableReport::cell(bs.dedup_ratio()) << " ("
            << bs.unique_bytes_written / 1024 << " KiB unique of "
            << bs.logical_bytes_written / 1024 << " KiB logical, " << bs.evicted_chunks
            << " evicted)\n";
  if (run.warm_start_seeded > 0)
    std::cout << "warm start          : " << run.warm_start_seeded
              << " checkpoints seeded from " << cfg.warm_start_dir.string() << "\n";
  print_failure_summary(std::cout, run.trace);

  if (!cfg.run_dir.empty()) {
    std::cout << "journal             : " << run.journal_replayed << " replayed, "
              << run.journal_appended << " trained"
              << (run.journal_truncated_tail ? " (torn tail discarded)" : "") << "\n";
    const std::string run_trace = (cfg.run_dir / "trace.csv").string();
    write_trace_csv(run_trace, run.trace);
    std::cout << "trace written to " << run_trace << "\n";
  }
  if (!out_path.empty()) {
    write_trace_csv(out_path, run.trace);
    std::cout << "trace written to " << out_path << "\n";
  }
  if (!metrics_out.empty()) {
    const MetricsSnapshot snap = metrics().snapshot();
    print_metrics_snapshot(std::cout, snap);
    std::ofstream out(metrics_out, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + metrics_out);
    if (metrics_out.size() >= 4 &&
        metrics_out.compare(metrics_out.size() - 4, 4, ".csv") == 0)
      write_metrics_csv(out, snap);
    else
      write_metrics_json(out, snap);
    std::cout << "\nmetrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    write_trace_json(trace_out, SpanTracer::global().events());
    std::cout << "span trace written to " << trace_out
              << " (load in Perfetto or chrome://tracing)\n";
  }
  if (!profile_out.empty()) {
    write_profile();
    const prof::StackProfile raw = prof::CpuProfiler::global().snapshot();
    std::cout << "cpu profile written to " << profile_out << " (" << raw.total_samples
              << " samples, " << raw.dropped_samples << " dropped; feed to "
              << "flamegraph.pl or speedscope.app)\n";
  }
  if (!events_out.empty()) {
    std::cout << bus.total_emitted() << " events ("
              << bus.emitted(EventType::kEvalFinished) << " eval_finished) streamed to "
              << (events_out == "-" ? "stderr" : events_out) << "\n";
  }
  if (!registry_dir.empty()) {
    const RunRecord rec =
        make_run_record(app.name, cfg, run.trace, wall_seconds, run.store.get());
    append_run_record(registry_dir, rec);
    std::cout << "run " << rec.run_id << " (config " << rec.config_hash
              << ") appended to " << registry_dir << "/registry.ndjson\n";
  }
  return 0;
} catch (const std::exception& e) {
  // Config validation (fault rates, worker counts, ...) throws; report it
  // as a CLI error instead of aborting through std::terminate.
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
