// Compute-kernel throughput study: the blocked/threaded kernels against
// the retained naive:: references, on the shapes a real search runs.
//
// The headline is census-weighted conv GF/s: every distinct conv shape of
// the committed kernel-call census (bench/kernel_census.csv, five
// `cifar-lcs` searches) is timed forward and backward, naive vs blocked,
// and weighted by its call count.  The run exits non-zero when any census
// shape is slower blocked than naive, or when any blocked result differs
// from its reference by a single bit.  Secondary tables: GEMM at the
// census's shapes and at 64..512^3, and thread scaling at 256^3/512^3.
// All tables land in BENCH_bench_gemm.json via BenchResultFile.
//
//   --smoke              fewer repetitions (CI)
//   --write-census FILE  regenerate the census and exit
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace swt;
using namespace swt::bench;
namespace k = swt::kernels;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Min-of-reps wall time of `fn` — the standard way to strip scheduler noise
/// from identical repeated work.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// Per-call seconds of a *pair* of competitors: each sample times enough
/// back-to-back calls to last about `sample_s` (so microsecond kernels are
/// not lost in clock granularity), the best of `reps` samples is kept, and
/// the two sides alternate sample by sample after one untimed warmup each.
/// On a shared host the clock speed drifts over seconds; interleaving keeps
/// each comparison's two sides in the same phase so the ratio is fair even
/// when absolute GF/s wobbles.
template <typename FnA, typename FnB>
std::pair<double, double> time_best_pair(int reps, FnA&& fa, FnB&& fb,
                                         double sample_s = 0.0) {
  fa();
  fb();
  const auto calls_for = [sample_s](auto& fn) {
    const WallTimer timer;
    fn();
    const double once = std::max(timer.seconds(), 1e-8);
    return static_cast<long>(std::clamp(sample_s / once, 1.0, 1e5));
  };
  const long na = calls_for(fa), nb = calls_for(fb);
  const auto sample = [](auto& fn, long calls) {
    const WallTimer timer;
    for (long i = 0; i < calls; ++i) fn();
    return timer.seconds() / static_cast<double>(calls);
  };
  double best_a = 1e300;
  double best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    best_a = std::min(best_a, sample(fa, na));
    best_b = std::min(best_b, sample(fb, nb));
  }
  return {best_a, best_b};
}

double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

bool g_all_match = true;
bool g_gate_ok = true;

void check_match(const std::vector<float>& got, const std::vector<float>& want,
                 const std::string& what) {
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    g_all_match = false;
    std::cout << "MISMATCH: " << what << " diverges from the naive reference\n";
  }
}

// ---------------------------------------------------------------------------
// GEMM: naive vs blocked, single-threaded
// ---------------------------------------------------------------------------

void gemm_single_thread_study(bool smoke) {
  print_banner(std::cout, "GEMM GFLOP/s, single thread (naive vs blocked)");
  k::set_compute_threads(1);
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{256} : std::vector<std::int64_t>{64, 128, 256, 384};
  const int reps = smoke ? 3 : 5;

  using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, std::int64_t, bool);
  struct Variant {
    const char* name;
    GemmFn blocked;
    GemmFn naive;
  };
  const Variant variants[] = {
      {"nn", &k::gemm_nn, &k::naive::gemm_nn},
      {"tn", &k::gemm_tn, &k::naive::gemm_tn},
      {"nt", &k::gemm_nt, &k::naive::gemm_nt},
  };

  TableReport table({"variant", "m=n=k", "naive GF/s", "blocked GF/s", "speedup"});
  for (const auto& v : variants) {
    for (const std::int64_t s : sizes) {
      const auto a = random_vec(s * s, 1);
      const auto b = random_vec(s * s, 2);
      std::vector<float> c_naive(static_cast<std::size_t>(s * s));
      std::vector<float> c_blocked(c_naive.size());
      const double flops = 2.0 * static_cast<double>(s) * s * s;
      const auto [t_naive, t_blocked] = time_best_pair(
          reps, [&] { v.naive(a.data(), b.data(), c_naive.data(), s, s, s, false); },
          [&] { v.blocked(a.data(), b.data(), c_blocked.data(), s, s, s, false); });
      check_match(c_blocked, c_naive, std::string("gemm_") + v.name + " " +
                                          std::to_string(s) + "^3");
      table.add_row({v.name, std::to_string(s), TableReport::cell(gflops(flops, t_naive)),
                     TableReport::cell(gflops(flops, t_blocked)),
                     TableReport::cell(t_naive / t_blocked, 2) + "x"});
    }
  }
  table.print(std::cout);
}

// ---------------------------------------------------------------------------
// Thread scaling of the blocked path
// ---------------------------------------------------------------------------

void gemm_scaling_study(bool smoke) {
  print_banner(std::cout, "GEMM thread scaling (blocked nn, 2-D tile partition)");
  const int reps = smoke ? 3 : 5;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  // 512^3 is the gated size (enough tiles — 8x4 at MC=64/NC=128 — for 8
  // owners); 256^3 shows where the old row partitioner went flat.
  TableReport table({"m=n=k", "threads", "GF/s", "speedup vs 1"});
  double sp4 = 0.0, sp8 = 0.0;  // 512^3 speedups feeding the gate
  for (const std::int64_t s : {std::int64_t{256}, std::int64_t{512}}) {
    const auto a = random_vec(s * s, 1);
    const auto b = random_vec(s * s, 2);
    const double flops = 2.0 * static_cast<double>(s) * s * s;

    k::set_compute_threads(1);
    std::vector<float> ref(static_cast<std::size_t>(s * s));
    const double t1 = time_best(
        reps, [&] { k::gemm_nn(a.data(), b.data(), ref.data(), s, s, s, false); });
    table.add_row({std::to_string(s), "1", TableReport::cell(gflops(flops, t1)),
                   "1.00x"});
    for (const int threads : {2, 4, 8}) {
      k::set_compute_threads(threads);
      std::vector<float> c(ref.size());
      const double t = time_best(
          reps, [&] { k::gemm_nn(a.data(), b.data(), c.data(), s, s, s, false); });
      check_match(c, ref, "gemm_nn " + std::to_string(s) + "^3 @" +
                              std::to_string(threads) + " threads");
      const double sp = t1 / t;
      if (s == 512 && threads == 4) sp4 = sp;
      if (s == 512 && threads == 8) sp8 = sp;
      table.add_row({std::to_string(s), std::to_string(threads),
                     TableReport::cell(gflops(flops, t)),
                     TableReport::cell(sp, 2) + "x"});
    }
    k::set_compute_threads(1);
  }
  table.print(std::cout);
  std::cout << "(hardware threads on this host: " << cores << ")\n";

  // Parallel-efficiency floor: the tile partitioner must actually buy
  // wall-clock on multi-core hosts.  Thread counts above the core count
  // only oversubscribe, so each floor applies where the cores exist to
  // meet it; on smaller hosts the study still runs (correctness checks
  // above) but the floor is reported N/A.
  if (cores >= 8) {
    const bool ok = sp8 >= 3.0 && sp4 >= 2.0;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": 512^3 nn speedup @8 threads = " << TableReport::cell(sp8, 2)
              << "x (floor 3.00x), @4 threads = " << TableReport::cell(sp4, 2)
              << "x (floor 2.00x)\n";
    if (!ok) g_gate_ok = false;
  } else if (cores >= 4) {
    const bool ok = sp4 >= 2.0;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": 512^3 nn speedup @4 threads = " << TableReport::cell(sp4, 2)
              << "x (floor 2.00x; the 8-thread floor needs an 8-core host)\n";
    if (!ok) g_gate_ok = false;
  } else {
    std::cout << "NOTE: host has " << cores
              << " core(s); the scaling floors (>=2.00x @4 threads, >=3.00x @8 "
                 "threads, 512^3) apply to >=4-core hosts.\n";
  }

  // Per-worker utilization of the pool during a max-thread burst: flat GF/s
  // above shows *that* scaling stops; this table shows *why* — either the
  // workers are busy but contending (busy share high, GF/s flat: memory
  // bound) or they starve behind the inline tile range (idle share high:
  // dispatch bound).  The submitting thread runs part 0 inline and is not
  // a pool worker, so it has no row here.
  print_banner(std::cout, "pool worker utilization (blocked nn, 512^3, max threads)");
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t su = 512;
  const auto au = random_vec(su * su, 1);
  const auto bu = random_vec(su * su, 2);
  k::set_compute_threads(8);
  pool.reset_stats();
  std::vector<float> c(static_cast<std::size_t>(su * su));
  for (int r = 0; r < reps; ++r)
    k::gemm_nn(au.data(), bu.data(), c.data(), su, su, su, false);
  k::set_compute_threads(1);
  const std::vector<ThreadStats> stats = pool.stats();
  TableReport util({"pool worker", "busy s", "idle s", "busy share", "tasks"});
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const double wall = stats[i].busy_seconds + stats[i].idle_seconds;
    util.add_row({std::to_string(i), TableReport::cell(stats[i].busy_seconds, 4),
                  TableReport::cell(stats[i].idle_seconds, 4),
                  TableReport::cell_pct(wall > 0.0 ? stats[i].busy_seconds / wall : 0.0),
                  std::to_string(stats[i].tasks)});
  }
  util.print(std::cout);
}

// ---------------------------------------------------------------------------
// Shape census: what a real search asks of the kernels
// ---------------------------------------------------------------------------
// `--write-census FILE` runs the first five searches of perfbench's
// `cifar-lcs` workload at `--seed 1` (CIFAR-10, LCS, 60 evals, 8 virtual
// workers, fixed 1 s virtual train time) with a kernel call observer
// installed, and writes one line per distinct call shape with its call
// count.  The searches are deterministic, so the file is too; the committed
// copy (bench/kernel_census.csv) is this study's input.

constexpr int kCensusSearches = 5;
constexpr long kCensusEvals = 60;

std::mutex g_census_mu;
std::map<std::string, long>* g_census = nullptr;

const char* op_name(k::KernelCall::Op op) {
  switch (op) {
    case k::KernelCall::Op::kGemmNN: return "gemm_nn";
    case k::KernelCall::Op::kGemmTN: return "gemm_tn";
    case k::KernelCall::Op::kGemmNT: return "gemm_nt";
    case k::KernelCall::Op::kConvForward: return "conv_fwd";
    case k::KernelCall::Op::kConvBackward: return "conv_bwd";
    case k::KernelCall::Op::kConvBackwardNoDx: return "conv_bwd_nodx";
  }
  return "?";
}

void record_call(const k::KernelCall& call) {
  std::ostringstream key;
  key << op_name(call.op);
  if (call.op == k::KernelCall::Op::kGemmNN || call.op == k::KernelCall::Op::kGemmTN ||
      call.op == k::KernelCall::Op::kGemmNT) {
    key << ',' << call.m << ',' << call.n << ',' << call.k;
  } else {
    const k::ConvGeom& g = call.conv;
    for (const std::int64_t v : {g.n, g.h, g.w, g.cin, g.kh, g.kw, g.cout, g.oh, g.ow,
                                 g.stride, g.pad_h, g.pad_w})
      key << ',' << v;
  }
  const std::lock_guard<std::mutex> lock(g_census_mu);
  ++(*g_census)[key.str()];
}

int write_census(const std::string& path) {
  std::map<std::string, long> census;
  g_census = &census;
  k::set_call_observer(&record_call);
  for (int i = 0; i < kCensusSearches; ++i) {
    const std::uint64_t seed = mix64(1, static_cast<std::uint64_t>(i)) % 1000000007ULL;
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = kCensusEvals;
    cfg.seed = seed;
    cfg.cluster.num_workers = 8;
    cfg.cluster.fixed_train_seconds = 1.0;
    (void)run_nas(make_app(AppId::kCifar, seed), cfg);
  }
  k::set_call_observer(nullptr);
  g_census = nullptr;
  std::ofstream out(path);
  out << "# Kernel-call census of " << kCensusSearches << " cifar-lcs searches ("
      << kCensusEvals << " evals each); written by bench_gemm --write-census.\n"
      << "# conv rows: op,calls,n,h,w,cin,kh,kw,cout,oh,ow,stride,pad_h,pad_w\n"
      << "# gemm rows: op,calls,m,n,k\n";
  for (const auto& [key, calls] : census) {
    const std::size_t comma = key.find(',');
    out << key.substr(0, comma) << ',' << calls << key.substr(comma) << '\n';
  }
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << census.size() << " distinct call shapes to " << path << "\n";
  return 0;
}

struct CensusRow {
  std::string op;
  long calls = 0;
  k::ConvGeom g;                      // conv rows
  std::int64_t m = 0, n = 0, kk = 0;  // gemm rows
};

std::vector<CensusRow> read_census(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read census file " + path);
  std::vector<CensusRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    CensusRow row;
    std::getline(fields, row.op, ',');
    std::vector<std::int64_t> v;
    for (std::string f; std::getline(fields, f, ',');) v.push_back(std::stoll(f));
    const bool gemm = row.op.rfind("gemm_", 0) == 0;
    if (v.size() != (gemm ? 4u : 13u))
      throw std::runtime_error("bad census line: " + line);
    row.calls = static_cast<long>(v[0]);
    if (gemm) {
      row.m = v[1];
      row.n = v[2];
      row.kk = v[3];
    } else {
      k::ConvGeom& g = row.g;
      g.n = v[1], g.h = v[2], g.w = v[3], g.cin = v[4], g.kh = v[5], g.kw = v[6];
      g.cout = v[7], g.oh = v[8], g.ow = v[9], g.stride = v[10], g.pad_h = v[11];
      g.pad_w = v[12];
    }
    rows.push_back(row);
  }
  return rows;
}

std::string geom_label(const k::ConvGeom& g) {
  std::ostringstream os;
  os << g.n << 'x' << g.h << 'x' << g.w << 'x' << g.cin << " k" << g.kh << 'x' << g.kw
     << " -> " << g.cout << (g.pad_h + g.pad_w > 0 ? " same" : " valid");
  if (g.stride > 1) os << " s" << g.stride;
  return os.str();
}

/// One census conv geometry with its call counts per pass.
struct ConvShape {
  k::ConvGeom g;
  long fwd = 0, bwd = 0, bwd_nodx = 0;
  double t_naive_fwd = 0, t_fwd = 0, t_naive_bwd = 0, t_bwd = 0, t_bwd_nodx = 0;

  [[nodiscard]] double naive_seconds() const {
    return fwd * t_naive_fwd + (bwd + bwd_nodx) * t_naive_bwd;
  }
  [[nodiscard]] double blocked_seconds() const {
    return fwd * t_fwd + bwd * t_bwd + bwd_nodx * t_bwd_nodx;
  }
  /// Useful FLOPs the census asks of this shape: forward F, backward 3F,
  /// backward without the input gradient 2F.
  [[nodiscard]] double census_flops() const {
    return static_cast<double>(g.flops()) *
           static_cast<double>(fwd + 3 * bwd + 2 * bwd_nodx);
  }
};

/// Times and bit-checks one geometry in every pass, naive vs blocked.
void measure_conv(ConvShape& s, int reps, double sample_s) {
  const k::ConvGeom& g = s.g;
  const std::int64_t x_size = g.n * g.h * g.w * g.cin;
  const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;
  const std::int64_t y_size = g.patch_rows() * g.cout;
  const auto x = random_vec(x_size, 11);
  const auto w = random_vec(w_size, 12);
  const auto bias = random_vec(g.cout, 13);
  const auto dy = random_vec(y_size, 14);
  const auto dw0 = random_vec(w_size, 15);
  const auto db0 = random_vec(g.cout, 16);
  const std::string label = geom_label(g);

  std::vector<float> y_naive(static_cast<std::size_t>(y_size)), y(y_naive.size());
  std::tie(s.t_naive_fwd, s.t_fwd) = time_best_pair(
      reps, [&] { k::naive::conv_forward(x.data(), w.data(), bias.data(), y_naive.data(), g); },
      [&] { k::conv_forward(x.data(), w.data(), bias.data(), y.data(), g); }, sample_s);
  check_match(y, y_naive, "conv_forward " + label);

  // One fresh call per pass for the bit check: dw/db start non-zero (they
  // are accumulated into), dx starts at zero.
  const auto backward = [&](auto&& fn, bool with_dx) {
    std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f), dw = dw0, db = db0;
    fn(x.data(), w.data(), dy.data(), with_dx ? dx.data() : nullptr, dw.data(), db.data(),
       g);
    return std::array<std::vector<float>, 3>{dx, dw, db};
  };
  const auto want = backward(k::naive::conv_backward, true);
  const auto got = backward(k::conv_backward, true);
  const auto got_nodx = backward(k::conv_backward, false);
  check_match(got[0], want[0], "conv_backward dx " + label);
  check_match(got[1], want[1], "conv_backward dw " + label);
  check_match(got[2], want[2], "conv_backward db " + label);
  check_match(got_nodx[1], want[1], "conv_backward (no dx) dw " + label);
  check_match(got_nodx[2], want[2], "conv_backward (no dx) db " + label);

  // Timed calls accumulate into scratch gradients; only time is read.
  std::vector<float> dx(static_cast<std::size_t>(x_size)), dw(dw0), db(db0);
  std::vector<float> dx_n(dx), dw_n(dw0), db_n(db0);
  std::tie(s.t_naive_bwd, s.t_bwd) = time_best_pair(
      reps,
      [&] {
        k::naive::conv_backward(x.data(), w.data(), dy.data(), dx_n.data(), dw_n.data(),
                                db_n.data(), g);
      },
      [&] {
        k::conv_backward(x.data(), w.data(), dy.data(), dx.data(), dw.data(), db.data(), g);
      },
      sample_s);
  if (s.bwd_nodx > 0) {
    s.t_bwd_nodx = time_best_pair(
                       reps,
                       [&] {
                         k::conv_backward(x.data(), w.data(), dy.data(), nullptr,
                                          dw.data(), db.data(), g);
                       },
                       [] {}, sample_s)
                       .first;
  }
}

/// The headline: census-weighted conv GF/s and the no-shape-slower gate.
void conv_census_study(const std::vector<CensusRow>& census, bool smoke) {
  print_banner(std::cout, "census-weighted conv GFLOP/s, single thread (naive vs blocked)");
  k::set_compute_threads(1);
  std::map<std::string, ConvShape> shapes;  // keyed by geometry
  for (const CensusRow& row : census) {
    if (row.op.rfind("conv_", 0) != 0) continue;
    ConvShape& s = shapes[geom_label(row.g) + " p" + std::to_string(row.g.pad_h) + "," +
                          std::to_string(row.g.pad_w) + " o" + std::to_string(row.g.oh) +
                          "x" + std::to_string(row.g.ow)];
    s.g = row.g;
    (row.op == "conv_fwd" ? s.fwd : row.op == "conv_bwd" ? s.bwd : s.bwd_nodx) += row.calls;
  }
  std::vector<ConvShape> list;
  for (auto& [key, s] : shapes) list.push_back(s);
  for (ConvShape& s : list) measure_conv(s, smoke ? 7 : 9, smoke ? 5e-4 : 1e-3);
  std::sort(list.begin(), list.end(), [](const ConvShape& a, const ConvShape& b) {
    return a.naive_seconds() > b.naive_seconds();
  });

  double flops = 0.0, naive_s = 0.0, blocked_s = 0.0;
  long calls = 0;
  std::vector<std::string> slower;
  for (const ConvShape& s : list) {
    flops += s.census_flops();
    naive_s += s.naive_seconds();
    blocked_s += s.blocked_seconds();
    calls += s.fwd + s.bwd + s.bwd_nodx;
    if (s.t_fwd >= s.t_naive_fwd) slower.push_back(geom_label(s.g) + " forward");
    if (s.t_bwd >= s.t_naive_bwd) slower.push_back(geom_label(s.g) + " backward");
  }
  TableReport headline({"conv shapes", "calls", "GFLOP", "naive s", "blocked s",
                        "naive GF/s", "blocked GF/s", "speedup"});
  headline.add_row({std::to_string(list.size()), std::to_string(calls),
                    TableReport::cell(flops / 1e9, 2), TableReport::cell(naive_s, 3),
                    TableReport::cell(blocked_s, 3),
                    TableReport::cell(gflops(flops, naive_s), 2),
                    TableReport::cell(gflops(flops, blocked_s), 2),
                    TableReport::cell(naive_s / blocked_s, 2) + "x"});
  headline.print(std::cout);

  print_banner(std::cout, "census conv shapes by naive time (top 15), microseconds per call");
  TableReport table({"shape", "fwd/bwd/bwd-nodx calls", "fwd naive", "fwd", "bwd naive",
                     "bwd", "bwd no-dx", "share of naive"});
  for (std::size_t i = 0; i < list.size() && i < 15; ++i) {
    const ConvShape& s = list[i];
    table.add_row({geom_label(s.g),
                   std::to_string(s.fwd) + "/" + std::to_string(s.bwd) + "/" +
                       std::to_string(s.bwd_nodx),
                   TableReport::cell(s.t_naive_fwd * 1e6, 2), TableReport::cell(s.t_fwd * 1e6, 2),
                   TableReport::cell(s.t_naive_bwd * 1e6, 2), TableReport::cell(s.t_bwd * 1e6, 2),
                   s.bwd_nodx > 0 ? TableReport::cell(s.t_bwd_nodx * 1e6, 2) : "-",
                   TableReport::cell_pct(s.naive_seconds() / naive_s)});
  }
  table.print(std::cout);

  // The passes closest to the gate: the smallest naive/blocked time ratios.
  std::vector<std::tuple<double, std::string, double, double>> margins;
  for (const ConvShape& s : list) {
    margins.emplace_back(s.t_naive_fwd / s.t_fwd, geom_label(s.g) + " forward", s.t_naive_fwd,
                         s.t_fwd);
    margins.emplace_back(s.t_naive_bwd / s.t_bwd, geom_label(s.g) + " backward",
                         s.t_naive_bwd, s.t_bwd);
  }
  std::sort(margins.begin(), margins.end());
  print_banner(std::cout, "census conv passes closest to the gate, microseconds per call");
  TableReport closest({"pass", "naive", "blocked", "speedup"});
  for (std::size_t i = 0; i < margins.size() && i < 8; ++i) {
    const auto& [ratio, what, t_naive, t_blocked] = margins[i];
    closest.add_row({what, TableReport::cell(t_naive * 1e6, 2),
                     TableReport::cell(t_blocked * 1e6, 2), TableReport::cell(ratio, 2) + "x"});
  }
  closest.print(std::cout);

  for (const std::string& what : slower) std::cout << "SLOWER THAN NAIVE: " << what << "\n";
  std::cout << (slower.empty() ? "PASS" : "FAIL") << ": " << slower.size() << " of "
            << 2 * list.size()
            << " census conv passes are slower blocked than naive (gate: none)\n";
  if (!slower.empty()) g_gate_ok = false;
}

/// GEMM at the census's shapes: reported, not gated (the dense kernels are
/// not shaped for these sizes yet).
void gemm_census_study(const std::vector<CensusRow>& census, bool smoke) {
  print_banner(std::cout, "census-weighted GEMM GFLOP/s, single thread (naive vs blocked)");
  k::set_compute_threads(1);
  using GemmFn = void (*)(const float*, const float*, float*, std::int64_t, std::int64_t,
                          std::int64_t, bool);
  double flops = 0.0, naive_s = 0.0, blocked_s = 0.0;
  long calls = 0, shapes = 0, slower = 0;
  for (const CensusRow& row : census) {
    if (row.op.rfind("gemm_", 0) != 0) continue;
    const GemmFn blocked = row.op == "gemm_nn"   ? &k::gemm_nn
                           : row.op == "gemm_tn" ? &k::gemm_tn
                                                 : &k::gemm_nt;
    const GemmFn naive = row.op == "gemm_nn"   ? &k::naive::gemm_nn
                         : row.op == "gemm_tn" ? &k::naive::gemm_tn
                                               : &k::naive::gemm_nt;
    const auto a = random_vec(row.m * row.kk, 1);
    const auto b = random_vec(row.kk * row.n, 2);
    std::vector<float> c_naive(static_cast<std::size_t>(row.m * row.n)), c(c_naive.size());
    const auto [t_naive, t_blocked] = time_best_pair(
        smoke ? 5 : 9,
        [&] { naive(a.data(), b.data(), c_naive.data(), row.m, row.n, row.kk, false); },
        [&] { blocked(a.data(), b.data(), c.data(), row.m, row.n, row.kk, false); },
        smoke ? 2e-4 : 1e-3);
    check_match(c, c_naive, row.op + " " + std::to_string(row.m) + "x" +
                                std::to_string(row.n) + "x" + std::to_string(row.kk));
    flops += 2.0 * static_cast<double>(row.m * row.n * row.kk) * static_cast<double>(row.calls);
    naive_s += t_naive * static_cast<double>(row.calls);
    blocked_s += t_blocked * static_cast<double>(row.calls);
    calls += row.calls;
    ++shapes;
    if (t_blocked >= t_naive) ++slower;
  }
  TableReport table({"gemm shapes", "calls", "naive GF/s", "blocked GF/s", "speedup",
                     "shapes slower blocked"});
  table.add_row({std::to_string(shapes), std::to_string(calls),
                 TableReport::cell(gflops(flops, naive_s), 2),
                 TableReport::cell(gflops(flops, blocked_s), 2),
                 TableReport::cell(blocked_s > 0.0 ? naive_s / blocked_s : 0.0, 2) + "x",
                 std::to_string(slower)});
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string write_path;
  // Strip our flags before google-benchmark parses the rest.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--write-census" && i + 1 < argc) {
      write_path = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!write_path.empty()) return write_census(write_path);

  swt::bench::BenchResultFile bench_json("bench_gemm");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  swt::bench::print_repro_note("compute-kernel throughput (kernel layer self-study)");
  const std::vector<CensusRow> census = read_census(SWTNAS_KERNEL_CENSUS);
  conv_census_study(census, smoke);
  gemm_census_study(census, smoke);
  gemm_single_thread_study(smoke);
  gemm_scaling_study(smoke);
  std::cout << (g_all_match
                    ? "\nPASS: every blocked result is bit-identical to its reference.\n"
                    : "\nFAIL: blocked kernels diverged from the naive reference.\n");
  if (!g_gate_ok)
    std::cout << "FAIL: a gate was not met (census shapes or thread scaling, see above).\n";
  return g_all_match && g_gate_ok ? 0 : 1;
}
