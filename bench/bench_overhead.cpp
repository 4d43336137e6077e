// Instrumentation overhead (the repro's analogue of the paper's "low and
// scalable overhead" claim, applied to the observability layer itself).
//
// Microbenchmarks price the individual instruments (counter add, histogram
// observe, span record, event emit) in both the enabled and disabled states;
// the experiment then runs the *same* default NAS search with
// instrumentation fully off and fully on (metrics + span tracer + event
// bus streaming to an in-memory sink) and reports the wall-time overhead
// share.  Target: <= 5% on the default search configuration.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "exp/journal.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/series.hpp"
#include "obs/span_tracer.hpp"
#include "serve/obs_server.hpp"

namespace {

using namespace swt;
using namespace swt::bench;

void BM_CounterAdd(benchmark::State& state) {
  set_metrics_enabled(state.range(0) != 0);
  Counter& c = metrics().counter("bench.counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
  set_metrics_enabled(true);
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_CounterAdd)->Arg(0)->Arg(1);

void BM_HistogramObserve(benchmark::State& state) {
  set_metrics_enabled(state.range(0) != 0);
  Histogram& h = metrics().histogram("bench.histogram");
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 100.0 ? v * 1.1 : 1e-6;
  }
  benchmark::DoNotOptimize(h.count());
  set_metrics_enabled(true);
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_HistogramObserve)->Arg(0)->Arg(1);

void BM_ScopedSpan(benchmark::State& state) {
  SpanTracer tracer;
  tracer.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    const ScopedSpan span("bench", "bench", tracer);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(tracer.size());
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_ScopedSpan)->Arg(0)->Arg(1);

void BM_EventEmit(benchmark::State& state) {
  EventBus bus;
  std::ostringstream sink;
  bus.set_stream(&sink);
  bus.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    bus.emit(EventType::kEvalFinished, 1.0, 0, 1, {{"score", "0.5"}});
    if (sink.tellp() > (1 << 20)) sink.str({});  // keep the sink bounded
  }
  benchmark::DoNotOptimize(bus.total_emitted());
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_EventEmit)->Arg(0)->Arg(1);

/// One full default search (nas_cli defaults: mnist / LCS / 8 workers),
/// returning measured wall seconds.
double run_once(const AppConfig& app, const NasRunConfig& cfg) {
  const WallTimer timer;
  const NasRun run = run_nas(app, cfg);
  benchmark::DoNotOptimize(run.trace.makespan);
  return timer.seconds();
}

double run_once(const AppConfig& app, long evals) {
  return run_once(app, standard_run_config(TransferMode::kLCS, 1, evals));
}

/// Average seconds per durable journal append, measured directly (the
/// full-run delta between fsync settings is far below host noise, so the
/// journal component is priced from its own hot path instead).
double journal_append_seconds(const std::filesystem::path& dir, int n) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EvalRecord rec;
  rec.id = 1;
  rec.arch = {4, 2, 7, 1, 3, 5};
  rec.score = 0.921875;
  rec.ckpt_key = "ckpt-0";
  rec.param_count = 45000;
  rec.train_seconds = 1.0;
  const Rng::State sel = Rng(7).state();
  RunJournal journal(dir, /*sync_each_append=*/true);
  const WallTimer timer;
  for (int i = 0; i < n; ++i) journal.append(rec, sel);
  const double s = timer.seconds() / n;
  std::filesystem::remove_all(dir);
  return s;
}

/// The durability tax: the identical search with the write-ahead journal
/// (fsync per record) + disk checkpoint store + manifest, against the plain
/// in-memory run.  The <= 5% acceptance target applies to the journal
/// component; the disk checkpoint store is priced alongside it.  Note the
/// substrate's evaluations are milliseconds where the paper's are minutes,
/// so every per-eval constant here is inflated by orders of magnitude
/// relative to deployment.
void journal_overhead_experiment() {
  print_repro_note("run-journal overhead (crash-recovery layer self-study)");
  const int repeats = std::max(2, bench_seeds());
  const long evals = bench_evals();
  const AppConfig app = make_app(AppId::kMnist, 1);
  const auto root =
      std::filesystem::temp_directory_path() / "swtnas_bench_journal_overhead";

  // Journaled replay is only defined under the deterministic-time contract,
  // and virtual time must not depend on host noise in either arm.
  NasRunConfig off_cfg = standard_run_config(TransferMode::kLCS, 1, evals);
  off_cfg.cluster.fixed_train_seconds = 1.0;

  (void)run_once(app, off_cfg);  // warm-up (see overhead_experiment)

  double off_s = 1e300, on_s = 1e300;
  std::size_t journaled = 0;
  for (int r = 0; r < repeats; ++r) {
    off_s = std::min(off_s, run_once(app, off_cfg));

    std::filesystem::remove_all(root);
    NasRunConfig on_cfg = off_cfg;
    on_cfg.run_dir = root / "run";
    const WallTimer timer;
    const NasRun run = run_nas(app, on_cfg);
    on_s = std::min(on_s, timer.seconds());
    journaled = run.journal_appended;
  }
  const double append_s = journal_append_seconds(root / "append_micro", 256);
  std::filesystem::remove_all(root);

  const double total = off_s > 0.0 ? (on_s - off_s) / off_s : 0.0;
  const double journal_tax =
      off_s > 0.0 ? append_s * static_cast<double>(journaled) / off_s : 0.0;
  const double per_eval_ms = evals > 0 ? (on_s - off_s) * 1e3 / double(evals) : 0.0;
  TableReport table({"durability", "wall s (min of N)", "overhead vs off"});
  table.add_row({"off (in-memory run)", TableReport::cell(off_s, 3), "-"});
  table.add_row({"on (journal fsync + disk ckpts)", TableReport::cell(on_s, 3),
                 TableReport::cell_pct(total)});
  table.add_row({"journal component (append x " + std::to_string(journaled) + ")",
                 TableReport::cell(append_s * static_cast<double>(journaled), 3),
                 TableReport::cell_pct(journal_tax)});
  table.print(std::cout);
  std::cout << "\nsearch: mnist/LCS, " << evals << " evals, 8 workers, " << repeats
            << " repeats | durable append: "
            << TableReport::cell(append_s * 1e6, 1) << " us/record | full durability: "
            << TableReport::cell(per_eval_ms, 2) << " ms per evaluation\n"
            << (journal_tax <= 0.05
                    ? "PASS: journal overhead within the 5% acceptance target.\n"
                    : "WARN: journal overhead above the 5% target on this host/run.\n");
}

void overhead_experiment() {
  print_repro_note("instrumentation overhead (observability layer self-study)");
  const int repeats = std::max(2, bench_seeds());
  const long evals = bench_evals();
  const AppConfig app = make_app(AppId::kMnist, 1);

  // Warm-up run so one-time costs (dataset materialisation, allocator
  // growth) do not land in either arm of the comparison.
  (void)run_once(app, evals);

  // min-of-N is the standard way to strip scheduler noise from a
  // wall-time comparison of identical work.
  std::ostringstream event_sink;
  EventBus& bus = EventBus::global();
  bus.set_stream(&event_sink);
  double off_s = 1e300, on_s = 1e300;
  for (int r = 0; r < repeats; ++r) {
    set_metrics_enabled(false);
    SpanTracer::global().set_enabled(false);
    bus.set_enabled(false);
    off_s = std::min(off_s, run_once(app, evals));

    set_metrics_enabled(true);
    SpanTracer::global().set_enabled(true);
    bus.set_enabled(true);
    event_sink.str({});
    on_s = std::min(on_s, run_once(app, evals));
  }
  const std::size_t events = SpanTracer::global().size();
  const long bus_events = bus.total_emitted();
  const MetricsSnapshot snap = metrics().snapshot();
  SpanTracer::global().set_enabled(false);
  SpanTracer::global().clear();
  bus.set_enabled(false);
  bus.set_stream(nullptr);
  set_metrics_enabled(true);

  const double overhead = off_s > 0.0 ? (on_s - off_s) / off_s : 0.0;
  TableReport table({"instrumentation", "wall s (min of N)", "overhead"});
  table.add_row({"off", TableReport::cell(off_s, 3), "-"});
  table.add_row({"on (metrics + tracer + events)", TableReport::cell(on_s, 3),
                 TableReport::cell_pct(overhead)});
  table.print(std::cout);
  std::cout << "\nsearch: mnist/LCS, " << evals << " evals, 8 workers, " << repeats
            << " repeats | instruments populated: " << snap.counters.size()
            << " counters, " << snap.histograms.size() << " histograms | span events: "
            << events << " | bus events: " << bus_events << "\n"
            << (overhead <= 0.05
                    ? "PASS: overhead within the 5% acceptance target.\n"
                    : "WARN: overhead above the 5% target on this host/run.\n");
}

/// The live telemetry plane's tax: the identical instrumented search with
/// the background sampler ticking fast (50 ms vs the 250 ms default) plus
/// an in-process scrape loop hammering every endpoint through
/// ObservabilityServer::handle() — deliberately harsher than a real
/// Prometheus scraping once per 15 s over TCP.  The <= 5% target applies
/// against the instrumented-but-unserved run (the plane rides on top of
/// instruments the previous experiment already priced).
void telemetry_plane_experiment() {
  print_repro_note("live telemetry plane overhead (sampler + HTTP handlers)");
  const int repeats = std::max(2, bench_seeds());
  const long evals = bench_evals();
  const AppConfig app = make_app(AppId::kMnist, 1);

  set_metrics_enabled(true);
  EventBus& bus = EventBus::global();
  bus.set_enabled(true);
  std::ostringstream event_sink;
  bus.set_stream(&event_sink);
  (void)run_once(app, evals);  // warm-up

  double off_s = 1e300, on_s = 1e300;
  std::uint64_t ticks = 0, scrapes = 0;
  for (int r = 0; r < repeats; ++r) {
    event_sink.str({});
    off_s = std::min(off_s, run_once(app, evals));

    TimeSeriesStore store;
    HealthWatchdog watchdog;
    watchdog.attach(bus);
    Sampler::Config sampler_cfg;
    sampler_cfg.interval = std::chrono::milliseconds(50);
    Sampler sampler(store, metrics(), sampler_cfg);
    sampler.set_on_tick([&watchdog] { watchdog.poll(); });
    sampler.start();
    ObservabilityServer server({}, metrics(), &store, &watchdog,
                               {"bench", "mnist", "lcs", evals});
    std::atomic<bool> scraping{true};
    std::uint64_t local_scrapes = 0;
    std::thread scraper([&] {
      while (scraping.load(std::memory_order_relaxed)) {
        for (const char* path : {"/metrics", "/healthz", "/status", "/series"}) {
          HttpRequest req;
          req.method = "GET";
          req.path = path;
          benchmark::DoNotOptimize(server.handle(req));
          ++local_scrapes;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    event_sink.str({});
    on_s = std::min(on_s, run_once(app, evals));
    scraping.store(false);
    scraper.join();
    sampler.stop();
    watchdog.detach();
    ticks = sampler.ticks();
    scrapes = local_scrapes;
  }
  bus.set_enabled(false);
  bus.set_stream(nullptr);

  const double overhead = off_s > 0.0 ? (on_s - off_s) / off_s : 0.0;
  TableReport table({"telemetry plane", "wall s (min of N)", "overhead"});
  table.add_row({"off (instrumented, unserved)", TableReport::cell(off_s, 3), "-"});
  table.add_row({"on (50ms sampler + scrape loop)", TableReport::cell(on_s, 3),
                 TableReport::cell_pct(overhead)});
  table.print(std::cout);
  std::cout << "\nsearch: mnist/LCS, " << evals << " evals, 8 workers, " << repeats
            << " repeats | last run: " << ticks << " sampler ticks, " << scrapes
            << " endpoint scrapes\n"
            << (overhead <= 0.05
                    ? "PASS: telemetry plane within the 5% acceptance target.\n"
                    : "WARN: telemetry plane above the 5% target on this host/run.\n");
}

/// The performance-attribution plane's tax: the identical instrumented +
/// traced search with the 97 Hz sampling profiler armed (per-thread SIGPROF
/// timers + per-kernel counter reads + FLOP-annotated kernel spans) and one
/// in-process scraper pulling /profile and /criticalpath through
/// ObservabilityServer::handle().  The <= 5% target applies against the
/// instrumented-but-unprofiled run, matching how the profiler ships: always
/// compiled in, paying only when armed.
void profiler_experiment() {
  print_repro_note("sampling profiler overhead (97 Hz + counters + /profile scraper)");
  const int repeats = std::max(2, bench_seeds());
  const long evals = bench_evals();
  const AppConfig app = make_app(AppId::kMnist, 1);

  set_metrics_enabled(true);
  SpanTracer& tracer = SpanTracer::global();
  tracer.set_enabled(true);
  (void)run_once(app, evals);  // warm-up (see overhead_experiment)

  prof::register_current_thread("bench-main");
  prof::CpuProfiler& profiler = prof::CpuProfiler::global();
  double off_s = 1e300, on_s = 1e300;
  std::uint64_t samples = 0, dropped = 0, scrapes = 0;
  for (int r = 0; r < repeats; ++r) {
    tracer.clear();
    off_s = std::min(off_s, run_once(app, evals));

    profiler.reset();
    if (!profiler.start(prof::ProfilerConfig{97})) {
      std::cout << "SKIP: sampling profiler unavailable on this host ("
                << profiler.last_error() << ")\n";
      tracer.set_enabled(false);
      tracer.clear();
      return;
    }
    ObservabilityServer server({}, metrics(), nullptr, nullptr,
                               {"bench", "mnist", "lcs", evals});
    server.set_profiler(&profiler);
    std::atomic<bool> scraping{true};
    std::uint64_t local_scrapes = 0;
    std::thread scraper([&] {
      while (scraping.load(std::memory_order_relaxed)) {
        for (const char* path : {"/profile?seconds=0", "/criticalpath"}) {
          HttpRequest req;
          req.method = "GET";
          const std::string target = path;
          const auto q = target.find('?');
          req.path = target.substr(0, q);
          if (q != std::string::npos) req.query.emplace("seconds", "0");
          benchmark::DoNotOptimize(server.handle(req));
          ++local_scrapes;
        }
        // Each /profile hit symbolizes the whole aggregate; 20 Hz is already
        // far harsher than a real dashboard pulling once per refresh.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
    tracer.clear();
    on_s = std::min(on_s, run_once(app, evals));
    scraping.store(false);
    scraper.join();
    profiler.stop();
    const prof::StackProfile snap = profiler.snapshot();
    samples = snap.total_samples;
    dropped = snap.dropped_samples;
    scrapes = local_scrapes;
  }
  tracer.set_enabled(false);
  tracer.clear();

  const double overhead = off_s > 0.0 ? (on_s - off_s) / off_s : 0.0;
  TableReport table({"profiling", "wall s (min of N)", "overhead"});
  table.add_row({"off (instrumented, unprofiled)", TableReport::cell(off_s, 3), "-"});
  table.add_row({"on (97 Hz + counters + scraper)", TableReport::cell(on_s, 3),
                 TableReport::cell_pct(overhead)});
  table.print(std::cout);
  std::cout << "\nsearch: mnist/LCS, " << evals << " evals, 8 workers, " << repeats
            << " repeats | last run: " << samples << " samples (" << dropped
            << " dropped), " << scrapes << " profile/criticalpath scrapes\n"
            << (overhead <= 0.05
                    ? "PASS: profiler within the 5% acceptance target.\n"
                    : "WARN: profiler above the 5% target on this host/run.\n");
}

}  // namespace

int main(int argc, char** argv) {
  swt::bench::BenchResultFile bench_json("overhead");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  overhead_experiment();
  journal_overhead_experiment();
  telemetry_plane_experiment();
  profiler_experiment();
  return 0;
}
