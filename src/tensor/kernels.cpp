#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/counters.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/span_tracer.hpp"

namespace swt::kernels {
namespace {

using std::int64_t;

// ---------------------------------------------------------------------------
// Threading knob + 2-D tile dispatch
// ---------------------------------------------------------------------------

int hardware_threads() noexcept {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int threads_from_env() {
  const char* v = std::getenv("SWT_THREADS");
  const int hw = hardware_threads();
  if (v == nullptr) return hw;
  std::string reason;
  const int n = parse_thread_count(v, hw, &reason);
  if (!reason.empty())
    log_warn("SWT_THREADS=\"", v, "\": ", reason, "; using ", n,
             " compute thread(s)");
  return n;
}

std::atomic<int> g_compute_threads{0};  // 0 = resolve from env on first use

std::atomic<CallObserver> g_observer{nullptr};

/// Reports one public kernel call to the census observer, if one is set.
void observe(KernelCall::Op op, const ConvGeom* g, int64_t m = 0, int64_t n = 0,
             int64_t k = 0) {
  const CallObserver fn = g_observer.load(std::memory_order_relaxed);
  if (fn == nullptr) return;
  KernelCall call;
  call.op = op;
  if (g != nullptr) call.conv = *g;
  call.m = m;
  call.n = n;
  call.k = k;
  fn(call);
}

/// Set inside pool-executed tile ranges: a kernel invoked from a compute
/// range must not re-enter the pool — its caller is already occupying a
/// worker and blocking on the join.
thread_local bool tl_in_compute_chunk = false;

/// Per-worker resource-counter deltas of the most recent parallel dispatches
/// issued by this thread, folded back on the caller after the join so phase
/// attribution (prof.gemm.* / prof.conv.*) counts every thread that did
/// work.  `count == 0` means "no remote work measured" — the sum must then
/// be ignored, not added (its zero `hardware` flag would otherwise clear the
/// caller's).
struct RemoteCounters {
  prof::CounterSample sum;
  int count = 0;

  void fold(const prof::CounterSample& delta) {
    if (count == 0)
      sum = delta;
    else
      sum.add(delta);
    ++count;
  }
};
thread_local RemoteCounters tl_remote;

/// Run body(lo, hi) over a deterministic static partition of the tile range
/// [0, tiles).  Each tile has exactly one owner (owner-computes), and a
/// tile's result is independent of the partition, so every thread count is
/// bit-identical.  Falls back to one serial call when threading cannot pay
/// for itself.  Ranges executed on pool workers are bracketed with the
/// worker's resource counters (metrics on) and folded into `tl_remote` for
/// the caller's phase attribution.
template <typename Body>
void dispatch_tiles(int64_t tiles, double flops, const Body& body) {
  if (tiles <= 0) return;
  const int threads = compute_threads();
  if (threads <= 1 || tiles == 1 || tl_in_compute_chunk ||
      flops < static_cast<double>(kParallelFlopThreshold)) {
    body(0, tiles);
    return;
  }
  const int parts = static_cast<int>(std::min<int64_t>(threads, tiles));
  const bool collect = metrics_enabled();
  std::vector<prof::CounterSample> deltas(
      collect ? static_cast<std::size_t>(parts) : 0);
  parallel_tiles(tiles, parts, [&](int part, int64_t lo, int64_t hi) {
    if (part == 0) {
      // Inline on the caller: its counters already bracket the whole kernel
      // call in timed(), so measuring here would double-count.
      body(lo, hi);
      return;
    }
    tl_in_compute_chunk = true;
    if (collect) {
      prof::ThreadCounters& tc = prof::ThreadCounters::this_thread();
      const prof::CounterSample before = tc.read();
      body(lo, hi);
      deltas[static_cast<std::size_t>(part)] = tc.read().delta(before);
    } else {
      body(lo, hi);
    }
    tl_in_compute_chunk = false;
  });
  if (collect) {
    for (int p = 1; p < parts; ++p)
      tl_remote.fold(deltas[static_cast<std::size_t>(p)]);
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void record_matmul(double seconds, int64_t flops) noexcept {
  static Gauge& seconds_g = metrics().gauge("tensor.matmul_seconds");
  static Counter& calls_c = metrics().counter("tensor.matmul_total");
  static Counter& flops_c = metrics().counter("tensor.matmul_flops_total");
  if (seconds > 0.0) seconds_g.add(seconds);
  calls_c.add();
  flops_c.add(flops);
}

void record_conv(double seconds, int64_t flops) noexcept {
  static Gauge& seconds_g = metrics().gauge("tensor.conv_seconds");
  static Counter& calls_c = metrics().counter("tensor.conv_total");
  static Counter& flops_c = metrics().counter("tensor.conv_flops_total");
  if (seconds > 0.0) seconds_g.add(seconds);
  calls_c.add();
  flops_c.add(flops);
}

/// Calls below kTinyCallFlops take about as long as the two clock reads
/// that would time them.  timed() times one in kTinyCallSample of them per
/// thread, picked by a Weyl sequence (so no periodic call pattern aliases
/// with the pick), and books that time kTinyCallSample times: the gauges
/// stay unbiased while such a call pays no clock.  Calls and FLOPs are
/// always counted.
constexpr int64_t kTinyCallFlops = 1 << 16;
constexpr std::uint64_t kTinyCallSample = 16;

/// Times `fn` into the given recorder only when metrics are on (two clock
/// reads per timed call, skipped entirely otherwise).  Kernels big enough
/// to parallelize additionally bracket the call with the calling thread's
/// resource counters — plus the per-worker deltas dispatch_tiles folded
/// into tl_remote — so achieved GF/s and IPC per phase cover every thread
/// that did work; small kernels keep the historical two-clock-read path so
/// the bench_overhead gate is unaffected by thousands of tiny calls per
/// second.  FLOP-annotated wall spans are emitted only while the sampling
/// profiler is live — a plain --trace-out run produces exactly the spans it
/// used to.
template <typename Fn, typename Rec>
inline void timed(int64_t flops, Rec rec, prof::Phase phase, Fn&& fn) {
  if (!metrics_enabled()) {
    fn();
    return;
  }
  if (flops < kTinyCallFlops) {
    thread_local std::uint64_t tl_tiny_calls = 0;
    if (++tl_tiny_calls * 0x9e3779b97f4a7c15ULL >= ~std::uint64_t{0} / kTinyCallSample) {
      fn();
      rec(0.0, flops);
      return;
    }
    const WallTimer timer;
    fn();
    rec(timer.seconds() * static_cast<double>(kTinyCallSample), flops);
    return;
  }
  if (flops < kParallelFlopThreshold) {
    const WallTimer timer;
    fn();
    rec(timer.seconds(), flops);
    return;
  }
  prof::ThreadCounters& counters = prof::ThreadCounters::this_thread();
  // Nested kernels (conv's inner GEMM) save and restore the accumulator:
  // each timed() consumes only the remote deltas of dispatches its own fn
  // issued, and an inner kernel's remote work is attributed to the inner
  // phase (the caller's bracket still covers the inner *inline* work, as it
  // always has).
  const RemoteCounters saved_remote = tl_remote;
  tl_remote = RemoteCounters{};
  const prof::CounterSample before = counters.read();
  const WallTimer timer;
  fn();
  const double seconds = timer.seconds();
  const prof::CounterSample after = counters.read();
  rec(seconds, flops);
  prof::CounterSample delta = after.delta(before);
  if (tl_remote.count > 0) delta.add(tl_remote.sum);
  tl_remote = saved_remote;
  prof::record_phase(phase, seconds, flops, delta);
  SpanTracer& tracer = SpanTracer::global();
  if (tracer.enabled() && prof::CpuProfiler::global().running()) {
    const double dur_us = seconds * 1e6;
    std::vector<std::pair<std::string, std::string>> args{
        {"flops", std::to_string(flops)},
        {"gflops", std::to_string(seconds > 0.0 ? flops / seconds / 1e9 : 0.0)},
        {"cpu_s", std::to_string(delta.cpu_seconds)}};
    if (delta.hardware && delta.cycles > 0)
      args.emplace_back("ipc", std::to_string(static_cast<double>(delta.instructions) /
                                              static_cast<double>(delta.cycles)));
    tracer.complete(phase == prof::Phase::kGemm ? "gemm" : "conv", "kernel",
                    kTraceWallPid, SpanTracer::this_thread_tid(),
                    SpanTracer::wall_now_us() - dur_us, dur_us, std::move(args));
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMM — one packed core for nn / tn / nt
// ---------------------------------------------------------------------------
// The output C is cut into a 2-D grid of (MC x NC) tiles; each tile has one
// owner worker.  The owner walks k in KC panels, packing the A panel
// (mlen x klen) and B panel (klen x nlen) a tile consumes into thread-local
// buffers first: packing untransposes tn's A and nt's B, so a single
// micro-kernel family serves all three variants, and each worker reads/
// writes only its own buffers (no shared pack, no false sharing).  Register
// micro-tiles (MR x NR lanes) hold a C sub-tile across one k panel, loaded
// from and stored back to memory once per panel, so each element's chain
// stays `C ... + t_k + t_{k+1} ...` in ascending k — bit-identical to the
// naive loops while cutting B and C memory traffic by the tile factors.
//
// The accumulator tile is held in explicit vector-extension lanes rather
// than a float[][] array: GCC's scalar-replacement gives up on a 64-float
// aggregate and spills it to the stack every k step, which is slower than
// the naive loop.  Named vector locals are register-allocated like any
// other scalar.  Lane arithmetic is element-wise float mul/add, so the
// per-element chain is untouched (the TU is compiled -ffp-contract=off,
// see src/tensor/CMakeLists.txt, making that true for the naive references
// too — equality holds by construction, not by codegen accident).

constexpr int64_t MR = 4;    // micro-tile rows (broadcast reuse of a B row)
constexpr int64_t NR = 16;   // micro-tile columns (one 16-lane vector)
constexpr int64_t KC = 128;  // k panel
constexpr int64_t NC = 128;  // column panel: KC*NC*4 B = 64 KiB of B stays hot
constexpr int64_t MC = 64;   // tile rows: MC*KC*4 B = 32 KiB of packed A

typedef float vf16 __attribute__((vector_size(64)));  // GNU vector extension

inline vf16 load16(const float* p) {
  vf16 v;
  std::memcpy(&v, p, sizeof v);  // unaligned vector load
  return v;
}
inline void store16(float* p, const vf16& v) { std::memcpy(p, &v, sizeof v); }

/// MRC x NR tile of C from packed panels: `a` is the packed A panel (row
/// stride lda = klen), `b` the packed B panel (row stride ldb = nlen), k in
/// [k0, k1) local to the panel.  `av` is a scalar broadcast against one
/// 16-lane row of B.
template <int MRC>
inline void micro_n(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ b, int64_t ldb,
                    float* __restrict__ c, int64_t ldc, int64_t i0, int64_t j0,
                    int64_t k0, int64_t k1) {
  vf16 acc[MRC];
  for (int r = 0; r < MRC; ++r) acc[r] = load16(c + (i0 + r) * ldc + j0);
  for (int64_t kk = k0; kk < k1; ++kk) {
    const vf16 bv = load16(b + kk * ldb + j0);
    for (int r = 0; r < MRC; ++r) acc[r] += a[(i0 + r) * lda + kk] * bv;
  }
  for (int r = 0; r < MRC; ++r) store16(c + (i0 + r) * ldc + j0, acc[r]);
}

/// Double-width variant: MRC x 32 tile (two vectors per row).  Halves the
/// broadcast + loop overhead per FLOP; the hot path for large n.  Same
/// ascending-k chain per element as micro_n.
template <int MRC>
inline void micro_n2(const float* __restrict__ a, int64_t lda,
                     const float* __restrict__ b, int64_t ldb,
                     float* __restrict__ c, int64_t ldc, int64_t i0, int64_t j0,
                     int64_t k0, int64_t k1) {
  vf16 acc0[MRC], acc1[MRC];
  for (int r = 0; r < MRC; ++r) {
    acc0[r] = load16(c + (i0 + r) * ldc + j0);
    acc1[r] = load16(c + (i0 + r) * ldc + j0 + NR);
  }
  for (int64_t kk = k0; kk < k1; ++kk) {
    const vf16 bv0 = load16(b + kk * ldb + j0);
    const vf16 bv1 = load16(b + kk * ldb + j0 + NR);
    for (int r = 0; r < MRC; ++r) {
      const float av = a[(i0 + r) * lda + kk];
      acc0[r] += av * bv0;
      acc1[r] += av * bv1;
    }
  }
  for (int r = 0; r < MRC; ++r) {
    store16(c + (i0 + r) * ldc + j0, acc0[r]);
    store16(c + (i0 + r) * ldc + j0 + NR, acc1[r]);
  }
}

/// Scalar edge path for row/column tails; same per-element term order.
inline void edge_n(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc, int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                   int64_t k0, int64_t k1) {
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * ldc;
    for (int64_t kk = k0; kk < k1; ++kk) {
      const float av = a[i * lda + kk];
      const float* brow = b + kk * ldb;
      for (int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

/// One (mlen x nlen) C tile accumulated over one packed k panel.  `c` points
/// at the tile origin inside the full C (row stride ldc); `ap`/`bp` are the
/// packed panels with local strides klen/nlen.
void tile_panel(const float* ap, int64_t klen, const float* bp, int64_t nlen,
                float* c, int64_t ldc, int64_t mlen) {
  for (int64_t i = 0; i < mlen; i += MR) {
    const int64_t rows_left = std::min(MR, mlen - i);
    int64_t j = 0;
    for (; j + 2 * NR <= nlen; j += 2 * NR) {
      switch (rows_left) {
        case 4: micro_n2<4>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        case 3: micro_n2<3>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        case 2: micro_n2<2>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        default: micro_n2<1>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
      }
    }
    for (; j + NR <= nlen; j += NR) {
      switch (rows_left) {
        case 4: micro_n<4>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        case 3: micro_n<3>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        case 2: micro_n<2>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
        default: micro_n<1>(ap, klen, bp, nlen, c, ldc, i, j, 0, klen); break;
      }
    }
    if (j < nlen)
      edge_n(ap, klen, bp, nlen, c, ldc, i, i + rows_left, j, nlen, 0, klen);
  }
}

/// Everything one GEMM call needs, independent of which worker runs a tile.
/// `a_trans`: A is stored (k, m) with row stride lda (the tn variant);
/// `b_trans`: B is stored (n, k) with row stride ldb (the nt variant) and
/// the pack transposes it.  Either way the packed panels are plain row-major
/// op(A)/op(B) sub-blocks.
struct GemmSpec {
  const float* a;
  int64_t lda;
  bool a_trans;
  const float* b;
  int64_t ldb;
  bool b_trans;
  float* c;
  int64_t m, n, k;
  bool accumulate;
};

/// Per-worker pack buffers: thread-local, sized once, reused across calls.
/// Lifetime = the worker thread's lifetime; validity of the *contents* is
/// local to one packed panel inside one dispatch (each tile range re-packs
/// what it needs), so stale bytes from a previous call can never leak into
/// a result.
struct PackBuffers {
  std::vector<float> a;  // MC x KC
  std::vector<float> b;  // KC x NC
};

PackBuffers& pack_buffers() {
  thread_local PackBuffers bufs;
  if (bufs.a.size() < static_cast<std::size_t>(MC * KC))
    bufs.a.resize(static_cast<std::size_t>(MC * KC));
  if (bufs.b.size() < static_cast<std::size_t>(KC * NC))
    bufs.b.resize(static_cast<std::size_t>(KC * NC));
  return bufs;
}

/// Pack op(A)[i0 : i0+mlen, k0 : k0+klen] row-major into dst (stride klen).
void pack_a(const GemmSpec& s, float* dst, int64_t i0, int64_t mlen, int64_t k0,
            int64_t klen) {
  if (!s.a_trans) {
    for (int64_t r = 0; r < mlen; ++r) {
      const float* src = s.a + (i0 + r) * s.lda + k0;
      std::copy(src, src + klen, dst + r * klen);
    }
  } else {
    // A stored (k, m): read rows of A (contiguous), scatter into columns.
    for (int64_t kk = 0; kk < klen; ++kk) {
      const float* src = s.a + (k0 + kk) * s.lda + i0;
      for (int64_t r = 0; r < mlen; ++r) dst[r * klen + kk] = src[r];
    }
  }
}

/// Pack op(B)[k0 : k0+klen, j0 : j0+nlen] row-major into dst (stride nlen).
void pack_b(const GemmSpec& s, float* dst, int64_t k0, int64_t klen, int64_t j0,
            int64_t nlen) {
  if (!s.b_trans) {
    for (int64_t kk = 0; kk < klen; ++kk) {
      const float* src = s.b + (k0 + kk) * s.ldb + j0;
      std::copy(src, src + nlen, dst + kk * nlen);
    }
  } else {
    // B stored (n, k): read rows of B (contiguous), scatter into columns —
    // this is what turns nt's per-k strided gather into packed vector loads.
    for (int64_t j = 0; j < nlen; ++j) {
      const float* src = s.b + (j0 + j) * s.ldb + k0;
      for (int64_t kk = 0; kk < klen; ++kk) dst[kk * nlen + j] = src[kk];
    }
  }
}

/// Owner-computes walk over tile indices [lo, hi) of the (tiles_m x tiles_n)
/// grid, flattened jc-major (t = jc * tiles_m + ic) so a worker's contiguous
/// range shares B panels: for each jc column it owns a piece of, the worker
/// packs B(kc, jc) once and reuses it across all of its ic tiles.  Each C
/// element belongs to exactly one tile, each tile to exactly one range, and
/// the k panels run ascending — one accumulation chain per element, owned
/// end to end by one thread.
void gemm_tile_range(const GemmSpec& s, int64_t tiles_m, int64_t lo, int64_t hi) {
  PackBuffers& bufs = pack_buffers();
  int64_t t = lo;
  while (t < hi) {
    const int64_t jc = t / tiles_m;
    const int64_t group_end = std::min(hi, (jc + 1) * tiles_m);
    const int64_t j0 = jc * NC;
    const int64_t nlen = std::min(NC, s.n - j0);
    if (s.k <= 0) {
      // Nothing to reduce: the contract is still "overwrite with zeros"
      // unless accumulating (matching the naive fill + empty loop).
      if (!s.accumulate) {
        for (int64_t tt = t; tt < group_end; ++tt) {
          const int64_t i0 = (tt % tiles_m) * MC;
          const int64_t mlen = std::min(MC, s.m - i0);
          float* ctile = s.c + i0 * s.n + j0;
          for (int64_t r = 0; r < mlen; ++r)
            std::fill(ctile + r * s.n, ctile + r * s.n + nlen, 0.0f);
        }
      }
      t = group_end;
      continue;
    }
    for (int64_t kc = 0; kc < s.k; kc += KC) {
      const int64_t klen = std::min(KC, s.k - kc);
      pack_b(s, bufs.b.data(), kc, klen, j0, nlen);
      for (int64_t tt = t; tt < group_end; ++tt) {
        const int64_t i0 = (tt % tiles_m) * MC;
        const int64_t mlen = std::min(MC, s.m - i0);
        float* ctile = s.c + i0 * s.n + j0;
        if (kc == 0 && !s.accumulate) {
          for (int64_t r = 0; r < mlen; ++r)
            std::fill(ctile + r * s.n, ctile + r * s.n + nlen, 0.0f);
        }
        pack_a(s, bufs.a.data(), i0, mlen, kc, klen);
        tile_panel(bufs.a.data(), klen, bufs.b.data(), nlen, ctile, s.n, mlen);
      }
    }
    t = group_end;
  }
}

void gemm_2d(const GemmSpec& s, int64_t flops) {
  const int64_t tiles_m = (s.m + MC - 1) / MC;
  const int64_t tiles_n = (s.n + NC - 1) / NC;
  dispatch_tiles(tiles_m * tiles_n, static_cast<double>(flops),
                 [&s, tiles_m](int64_t lo, int64_t hi) {
                   gemm_tile_range(s, tiles_m, lo, hi);
                 });
}

// ---------------------------------------------------------------------------
// Convolution — vector lanes on the wide axis, no patch matrix
// ---------------------------------------------------------------------------
// No pass materialises the patch matrix (im2col) or its gradient (col2im).
// Each call works on its *window*: the smallest box of kernel taps holding
// every tap that lands on the image for some output pixel.  The passes read
// the input through a source view on which every pixel lands every window
// tap — x itself when that already holds, else a zero-padded copy of x
// covering the window's reach (dx likewise scatters into a padded copy of
// each image) — so no inner loop checks the image border, and the `v * 0`
// term of a window tap that falls off the image is computed against a real
// zero, in place, exactly as the zero-filled patch column of the im2col +
// GEMM formulation this replaced.  Every output element therefore keeps
// that formulation's single ascending chain:
//
// * forward — lanes on output channels.  Per pixel, each accumulator runs
//   `bias[oc] + sum w[k][oc] * x` over the window taps, k ascending, and
//   kPixGroup pixels share each w load.  Threads own blocks of kPixBlock
//   pixels.
// * dw — lanes on taps.  Patch rows are packed per block of pixels; each
//   lane carries its chain `dw_old + sum_p dy * x`, p ascending.  Threads
//   own tap chunks, never a split of the p reduction.  A one-tap window
//   whose output channels fill more lanes puts them there (DwChannelTile).
// * dx — lanes on taps.  Per output pixel, `0 + sum_oc dy * w` over oc
//   ascending (w^T packed once per call), scatter-added into dx in the
//   (yo, xo, kh, kw, ic) order of the reference loops.  Threads own images.
//
// Taps outside the window never land, and their terms are skipped.  Each
// is ±0 or NaN, and adding one to a partial sum either poisons it with NaN,
// leaves it unchanged (-0), or turns a -0 sum into +0 (+0).  Since s + t is
// -0 only when both are -0, that last effect commutes with every later
// addition, so the skipped terms collapse into one summary term
// `z = -0 + sum(v * 0)` per output, added at the end of its chain —
// bit-identical, 0 * NaN propagation included.

constexpr int64_t kLanes = 16;     // floats per vector
constexpr int64_t kPixBlock = 32;  // forward pixels per thread block
constexpr int kPixGroup = 4;       // pixels sharing each w (forward) or w^T (dx) load
constexpr int kOcVecs = 4;         // forward channel slice: 4 vectors
constexpr int kOcTile = 8;         // dw accumulator rows: 8 x 2 vectors of 32 regs
constexpr int64_t kTapChunk = 32;  // dw taps per owner (two vectors)
constexpr int64_t kRowBlock = 64;  // dw patch rows packed per panel
constexpr int kTapVecs = 4;        // dx tap vectors per pass
constexpr int kChannelRows = 4;    // DwChannelTile kernel rows per pass

/// s in every lane (a plain load: no vector literal syntax).
inline vf16 splat(float s) {
  float lanes[kLanes];
  std::fill(lanes, lanes + kLanes, s);
  return load16(lanes);
}

// Partial vectors move in fixed-size pieces: a variable-length copy would
// become a library call, which costs more than a small conv's arithmetic.

/// The n floats at p (0 < n; never read past p + n) in the low lanes, zeros
/// above.
inline vf16 load_n(const float* p, int64_t n) {
  if (n >= kLanes) return load16(p);
  float lanes[kLanes] = {};
  int64_t i = 0;
  if (n & 8) std::memcpy(lanes, p, 8 * sizeof(float)), i = 8;
  if (n & 4) std::memcpy(lanes + i, p + i, 4 * sizeof(float)), i += 4;
  if (n & 2) std::memcpy(lanes + i, p + i, 2 * sizeof(float)), i += 2;
  if (n & 1) lanes[i] = p[i];
  return load16(lanes);
}

/// Stores the low n lanes of v at p (0 < n; never writes past p + n).
inline void store_n(float* p, const vf16& v, int64_t n) {
  if (n >= kLanes) return store16(p, v);
  float lanes[kLanes];
  store16(lanes, v);
  int64_t i = 0;
  if (n & 8) std::memcpy(p, lanes, 8 * sizeof(float)), i = 8;
  if (n & 4) std::memcpy(p + i, lanes + i, 4 * sizeof(float)), i += 4;
  if (n & 2) std::memcpy(p + i, lanes + i, 2 * sizeof(float)), i += 2;
  if (n & 1) p[i] = lanes[i];
}

/// dst[0, N) += src[0, N) as one N-lane vector, when n has the N bit.
template <int N>
inline void add_piece(float*& dst, const float*& src, int64_t n) {
  typedef float vfn __attribute__((vector_size(N * sizeof(float))));
  if ((n & N) == 0) return;
  vfn a, b;
  std::memcpy(&a, dst, sizeof a);
  std::memcpy(&b, src, sizeof b);
  a += b;
  std::memcpy(dst, &a, sizeof a);
  dst += N, src += N;
}

/// dst[0, n) += src[0, n).
inline void add_into(float* dst, const float* src, int64_t n) {
  for (; n >= kLanes; n -= kLanes, dst += kLanes, src += kLanes)
    store16(dst, load16(dst) + load16(src));
  add_piece<8>(dst, src, n);
  add_piece<4>(dst, src, n);
  add_piece<2>(dst, src, n);
  if (n & 1) *dst += *src;
}

/// Whether kernel tap t lands inside the input for some output position
/// along one axis.
bool tap_lands(int64_t t, int64_t outs, int64_t in, int64_t stride, int64_t pad) {
  const int64_t first = t < pad ? (pad - t + stride - 1) / stride : 0;
  return first < outs && first * stride + t - pad < in;
}

/// The window along one axis: first and one-past-last tap that lands for
/// some output position ([0, 0) when none does).
void window(int64_t taps, int64_t outs, int64_t in, int64_t stride, int64_t pad,
            int64_t& lo, int64_t& hi) {
  lo = 0;
  while (lo < taps && !tap_lands(lo, outs, in, stride, pad)) ++lo;
  hi = taps;
  while (hi > lo && !tap_lands(hi - 1, outs, in, stride, pad)) --hi;
  if (lo == hi) lo = hi = 0;
}

/// An output pixel, advanced in patch-row order without divisions.
struct Pixel {
  int64_t ni = 0, yo = 0, xo = 0;

  Pixel() = default;
  Pixel(const ConvGeom& g, int64_t p) {
    if (p == 0) return;
    ni = p / (g.oh * g.ow), yo = (p / g.ow) % g.oh, xo = p % g.ow;
  }
  void next(const ConvGeom& g) {
    if (++xo < g.ow) return;
    xo = 0;
    if (++yo < g.oh) return;
    yo = 0;
    ++ni;
  }
  [[nodiscard]] int64_t index(const ConvGeom& g) const { return (ni * g.oh + yo) * g.ow + xo; }
};

/// One conv call's window — kernel rows [kh0, kh1) x columns [kw0, kw1) —
/// and the source view its passes index.  Packed column r is (tap, ic) in
/// (kh, kw, ic) order within the window.
struct ConvPlan {
  const ConvGeom& g;
  int64_t kh0 = 0, kh1 = 0, kw0 = 0, kw1 = 0;
  int64_t row = 0;   // packed columns per window row: window columns x cin
  int64_t k = 0;     // packed columns: window taps x cin
  int64_t kpad = 0;  // k rounded up to whole vectors
  bool full = true;  // the window is the whole kernel
  // Source view: images of ph x pw pixels, pixel (yo, xo)'s window tap
  // (0, 0) at (yo * stride + oy, xo * stride + ox).  `direct` when that is
  // x itself, else a zero-padded copy whose image (0, 0) is source (0, 0).
  bool direct = true;
  int64_t ph = 0, pw = 0, oy = 0, ox = 0;

  explicit ConvPlan(const ConvGeom& geom) : g(geom) {
    window(g.kh, g.oh, g.h, g.stride, g.pad_h, kh0, kh1);
    window(g.kw, g.ow, g.w, g.stride, g.pad_w, kw0, kw1);
    row = (kw1 - kw0) * g.cin;
    k = (kh1 - kh0) * row;
    kpad = (k + kLanes - 1) / kLanes * kLanes;
    full = k == g.patch_cols();
    direct = kh0 >= g.pad_h && (g.oh - 1) * g.stride + kh1 - g.pad_h <= g.h &&
             kw0 >= g.pad_w && (g.ow - 1) * g.stride + kw1 - g.pad_w <= g.w;
    if (direct) {
      ph = g.h, pw = g.w, oy = kh0 - g.pad_h, ox = kw0 - g.pad_w;
    } else {
      ph = (g.oh - 1) * g.stride + kh1 - kh0, pw = (g.ow - 1) * g.stride + kw1 - kw0;
    }
  }

  [[nodiscard]] int64_t image_size() const { return ph * pw * g.cin; }
  /// Offset of pixel q's window tap (0, 0) within its source image.
  [[nodiscard]] int64_t in_image(const Pixel& q) const {
    return ((q.yo * g.stride + oy) * pw + q.xo * g.stride + ox) * g.cin;
  }
  [[nodiscard]] int64_t at(const Pixel& q) const { return q.ni * image_size() + in_image(q); }

  /// Calls f(r, row) for every packed column r, ascending, with the row of
  /// w / dw (kernel-shaped, stride cout) behind it.
  template <typename F>
  void for_each_column(F&& f) const {
    int64_t r = 0;
    for (int64_t kh = kh0; kh < kh1; ++kh)
      for (int64_t kw = kw0; kw < kw1; ++kw)
        for (int64_t ic = 0; ic < g.cin; ++ic) f(r++, (kh * g.kw + kw) * g.cin + ic);
  }

  /// Calls f(t0, t1) for every maximal run [t0, t1) of kernel taps
  /// (kh * kw + kw') outside the window; their rows of w / dw are
  /// [t0 * cin, t1 * cin).
  template <typename F>
  void for_each_dead_run(F&& f) const {
    int64_t start = -1, t = 0;
    for (int64_t kh = 0; kh < g.kh; ++kh) {
      for (int64_t kw = 0; kw < g.kw; ++kw, ++t) {
        const bool dead = kh < kh0 || kh >= kh1 || kw < kw0 || kw >= kw1;
        if (dead && start < 0) start = t;
        if (!dead && start >= 0) {
          f(start, t);
          start = -1;
        }
      }
    }
    if (start >= 0) f(start, t);
  }

  /// Calls f(from, to, n) for every image row of images [lo, hi): n floats
  /// at offset `from` of the images (n x h x w x cin) lie at offset `to` of
  /// their source-view images (for !direct).
  template <typename F>
  void for_each_image_row(int64_t lo, int64_t hi, F&& f) const {
    const int64_t y0 = kh0 - g.pad_h, x0 = kw0 - g.pad_w;
    const int64_t xa = std::clamp<int64_t>(-x0, 0, pw);
    const int64_t xb = std::clamp<int64_t>(g.w - x0, xa, pw);
    for (int64_t ni = lo; ni < hi; ++ni)
      for (int64_t iy = std::max<int64_t>(0, -y0); iy < std::min(ph, g.h - y0); ++iy)
        f(((ni * g.h + iy + y0) * g.w + xa + x0) * g.cin,
          (ni - lo) * image_size() + (iy * pw + xa) * g.cin, (xb - xa) * g.cin);
  }

  /// Images [lo, hi) into their source-view images at dst, zeros around.
  void pad_images(const float* images, int64_t lo, int64_t hi, float* dst) const {
    std::fill(dst, dst + (hi - lo) * image_size(), 0.0f);
    for_each_image_row(lo, hi, [&](int64_t from, int64_t to, int64_t n) {
      std::copy_n(images + from, n, dst + to);
    });
  }

  /// The inverse of pad_images: the image part of the views back.
  void unpad_images(const float* views, int64_t lo, int64_t hi, float* images) const {
    for_each_image_row(lo, hi, [&](int64_t from, int64_t to, int64_t n) {
      std::copy_n(views + to, n, images + from);
    });
  }
};

/// z[oc] += v[i * cout + oc] * 0 over `rows` rows: skipped terms summed per
/// channel (see the section comment); z starts at -0, the identity.
void add_zero_terms(const float* __restrict__ v, int64_t rows, int64_t cout,
                    float* __restrict__ z) {
  for (int64_t i = 0; i < rows; ++i)
    for (int64_t oc = 0; oc < cout; ++oc) z[oc] += v[i * cout + oc] * 0.0f;
}

/// Whether some v[i] has `bits & mask == value` (a flat scan that vectorizes).
bool any_bits(const float* v, int64_t n, std::uint32_t mask, std::uint32_t value) {
  std::uint32_t found = 0;
  for (int64_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, v + i, sizeof bits);
    found |= (bits & mask) == value ? 1u : 0u;
  }
  return found != 0;
}

/// Whether some v[i] * 0 is NaN, i.e. some v[i] is NaN or infinite.
bool any_nonfinite(const float* v, int64_t n) {
  return any_bits(v, n, 0x7f800000u, 0x7f800000u);
}

/// Whether some v[i] is -0.
bool any_negative_zero(const float* v, int64_t n) {
  return any_bits(v, n, ~0u, 0x80000000u);
}

/// Pixel q's packed patch row into dst: k columns read from the source
/// view, then zeros up to kpad.  Rows are written in whole vectors, each
/// before the next, so dst needs kLanes floats of slack.
void pack_row(const float* src, const ConvPlan& c, const Pixel& q, float* dst) {
  const float* end = src + c.g.n * c.image_size();
  const float* s = src + c.at(q);
  for (int64_t a = c.kh0; a < c.kh1; ++a, s += c.pw * c.g.cin, dst += c.row) {
    for (int64_t j = 0; j < c.row; j += kLanes)
      store16(dst + j, s + j + kLanes <= end ? load16(s + j) : load_n(s + j, c.row - j));
  }
  store16(dst, splat(0.0f));
}

/// Per-thread panels, sized on demand and reused across calls.  A calling
/// thread's `src` and `w` are read (never written) by the pool
/// workers of its own dispatch; the other panels are private to their
/// thread.
struct ConvPanels {
  std::vector<float> src;   // zero-padded x
  std::vector<float> cols;  // dw patch rows, dx's dcol rows
  std::vector<float> acc;   // dw^T chunks, dx's last dy rows
  std::vector<float> dx;    // zero-padded dx images
  std::vector<float> w;     // forward window rows and bias, or dx's w^T
  std::vector<float> z;     // summary terms of the taps outside the window
};

float* panel(std::vector<float>& v, int64_t size) {
  if (v.size() < static_cast<std::size_t>(size)) v.resize(static_cast<std::size_t>(size));
  return v.data();
}

ConvPanels& conv_panels() {
  thread_local ConvPanels panels;
  return panels;
}

/// The source view's input: x, or its zero-padded copy in the caller's panel.
const float* source_view(const float* x, const ConvPlan& c, ConvPanels& cp) {
  if (c.direct) return x;
  const ConvGeom& g = c.g;
  float* src = panel(cp.src, g.n * c.image_size());
  c.pad_images(x, 0, g.n, src);
  return src;
}

/// Runs tile<N>(args...) for the runtime count n in [1, Max].
template <template <int> class Tile, int Max, typename... Args>
inline void with_count(int n, Args&&... args) {
  if constexpr (Max > 1) {
    if (n < Max) return with_count<Tile, Max - 1>(n, std::forward<Args>(args)...);
  }
  Tile<Max>::run(std::forward<Args>(args)...);
}

/// Forward, lanes on output channels: per pixel, `bias + sum w * x` over
/// the window's taps in (kh, kw, ic) order.  `w` holds the window's kernel
/// rows (stride cout), `w` and `bias` offset to the first of the NV*16
/// channels computed here, of which the first `oc` are stored; loads may
/// read up to 15 floats past a row.
template <int NV>
struct ForwardTile {
  template <int PG>
  static void pixels(const float* src, const ConvPlan& c, const Pixel* q, const float* w,
                     const float* bias, float* y, int64_t oc, int64_t p_end) {
    const ConvGeom& g = c.g;
    vf16 acc[PG][NV];
    for (int i = 0; i < PG; ++i)
      for (int v = 0; v < NV; ++v) acc[i][v] = load16(bias + v * kLanes);
    const float* xs[PG];
    for (int i = 0; i < PG; ++i) xs[i] = src + c.at(q[i]);
    for (int64_t a = c.kh0; a < c.kh1; ++a) {
      for (int64_t b = 0; b < c.row; b += g.cin) {
        const int64_t off = (a - c.kh0) * c.pw * g.cin + b;
        for (int64_t ic = 0; ic < g.cin; ++ic, w += g.cout) {
          vf16 wv[NV];
          for (int v = 0; v < NV; ++v) wv[v] = load16(w + v * kLanes);
          for (int i = 0; i < PG; ++i)
            for (int v = 0; v < NV; ++v) acc[i][v] += xs[i][off + ic] * wv[v];
        }
      }
    }
    for (int i = 0; i < PG; ++i) {
      // With one channel slice per pixel, whole vectors may run into the
      // rows of the next pixels, which are stored later — if in this block.
      const int64_t p = q[i].index(g);
      const bool spill = g.cout <= kOcVecs * kLanes && p * g.cout + NV * kLanes <= p_end * g.cout;
      for (int v = 0; v < NV; ++v) {
        float* to = y + p * g.cout + v * kLanes;
        spill ? store16(to, acc[i][v]) : store_n(to, acc[i][v], oc - v * kLanes);
      }
    }
  }

  static void run(const float* src, const ConvPlan& c, const Pixel* q, int64_t pn,
                  const float* w, const float* bias, float* y, int64_t oc, int64_t p_end) {
    if (pn == kPixGroup) return pixels<kPixGroup>(src, c, q, w, bias, y, oc, p_end);
    for (int64_t i = 0; i < pn; ++i) pixels<1>(src, c, q + i, w, bias, y, oc, p_end);
  }
};

/// Forward over pixel blocks [lo, hi) of kPixBlock output pixels.
void forward_pixels(const float* src, const float* w, const float* bias, float* y,
                    const ConvPlan& c, int64_t lo, int64_t hi) {
  const ConvGeom& g = c.g;
  const int64_t p1 = std::min(hi * kPixBlock, g.patch_rows());
  Pixel q(g, lo * kPixBlock);
  Pixel group[kPixGroup];
  for (int64_t p = lo * kPixBlock; p < p1; p += kPixGroup) {
    const int64_t pn = std::min<int64_t>(kPixGroup, p1 - p);
    for (int64_t i = 0; i < pn; ++i, q.next(g)) group[i] = q;
    for (int64_t oc0 = 0; oc0 < g.cout; oc0 += kOcVecs * kLanes) {
      const int64_t oc = std::min<int64_t>(kOcVecs * kLanes, g.cout - oc0);
      with_count<ForwardTile, kOcVecs>(static_cast<int>((oc + kLanes - 1) / kLanes), src, c,
                                       group, pn, w + oc0, bias + oc0, y + oc0, oc, p1);
    }
  }
}

/// dw^T tile: OC channels x NT*16 taps (rows of `acc_rows`, stride NT*16),
/// accumulated over `pn` packed patch rows (`cols`, row stride ldc) against
/// dy rows (stride cout, offset to the tile's first channel).
template <int NT>
struct DwTile {
  template <int OC>
  struct Oc {
    static void run(const float* cols, int64_t ldc, int64_t pn, const float* dy,
                    int64_t cout, float* acc_rows) {
      vf16 acc[OC][NT];
      for (int o = 0; o < OC; ++o)
        for (int t = 0; t < NT; ++t) acc[o][t] = load16(acc_rows + (o * NT + t) * kLanes);
      for (int64_t i = 0; i < pn; ++i) {
        vf16 xv[NT];
        for (int t = 0; t < NT; ++t) xv[t] = load16(cols + i * ldc + t * kLanes);
        const float* d = dy + i * cout;
        for (int o = 0; o < OC; ++o)
          for (int t = 0; t < NT; ++t) acc[o][t] += d[o] * xv[t];
      }
      for (int o = 0; o < OC; ++o)
        for (int t = 0; t < NT; ++t) store16(acc_rows + (o * NT + t) * kLanes, acc[o][t]);
    }
  };
};

/// dw over tap chunks [lo, hi) of the window: each chunk's chains run over
/// every patch row, ascending, on the chunk's owner.
void dw_chunks(const float* src, const float* dy, float* dw, const ConvPlan& c, int64_t lo,
               int64_t hi) {
  const ConvGeom& g = c.g;
  const int64_t rows = g.patch_rows();
  ConvPanels& cp = conv_panels();
  float* cols = panel(cp.cols, kRowBlock * c.kpad + kLanes);
  // dw^T of chunk j at acc + (j - lo) * cout * kTapChunk, rows of its width.
  float* acc = panel(cp.acc, (hi - lo) * g.cout * kTapChunk);
  const auto width = [&](int64_t chunk) {
    return std::min(kTapChunk, c.kpad - chunk * kTapChunk);
  };
  // Column r of chunk j is lane t = r - j * kTapChunk of its rows.
  const auto for_each_owned = [&](auto&& f) {
    c.for_each_column([&](int64_t r, int64_t row) {
      const int64_t chunk = r / kTapChunk;
      if (chunk < lo || chunk >= hi) return;
      const int64_t tw = width(chunk);
      f(acc + (chunk - lo) * g.cout * kTapChunk + r - chunk * kTapChunk, tw, dw + row * g.cout);
    });
  };
  std::fill(acc, acc + (hi - lo) * g.cout * kTapChunk, 0.0f);
  for_each_owned([&](float* lane, int64_t tw, const float* from) {
    for (int64_t oc = 0; oc < g.cout; ++oc) lane[oc * tw] = from[oc];
  });
  for (int64_t p0 = 0; p0 < rows; p0 += kRowBlock) {
    const int64_t pn = std::min(kRowBlock, rows - p0);
    Pixel q(g, p0);
    for (int64_t i = 0; i < pn; ++i, q.next(g)) pack_row(src, c, q, cols + i * c.kpad);
    for (int64_t chunk = lo; chunk < hi; ++chunk) {
      const int64_t tw = width(chunk);
      const float* chunk_cols = cols + chunk * kTapChunk;
      float* a = acc + (chunk - lo) * g.cout * kTapChunk;
      for (int64_t oc0 = 0; oc0 < g.cout; oc0 += kOcTile) {
        const int oc = static_cast<int>(std::min<int64_t>(kOcTile, g.cout - oc0));
        const float* d = dy + p0 * g.cout + oc0;
        float* rows_a = a + oc0 * tw;
        if (tw == kLanes)
          with_count<DwTile<1>::Oc, kOcTile>(oc, chunk_cols, c.kpad, pn, d, g.cout, rows_a);
        else
          with_count<DwTile<2>::Oc, kOcTile>(oc, chunk_cols, c.kpad, pn, d, g.cout, rows_a);
      }
    }
  }
  for_each_owned([&](const float* lane, int64_t tw, float* to) {
    for (int64_t oc = 0; oc < g.cout; ++oc) to[oc] = lane[oc * tw];
  });
}

/// dw of a one-tap window with lanes on output channels, for calls whose
/// input channels would leave tap lanes idle: NR kernel rows (input
/// channels ic0...) of the tap, each chain `dw_old + sum_p x * dy`, p
/// ascending, held in registers one 16-channel slice at a time.
template <int NR>
struct DwChannelTile {
  static void run(const float* src, const ConvPlan& c, const float* dy, float* dw,
                  int64_t ic0) {
    const ConvGeom& g = c.g;
    const int64_t size = g.patch_rows() * g.cout;
    const int64_t dw_size = g.patch_cols() * g.cout;
    dw += ((c.kh0 * g.kw + c.kw0) * g.cin + ic0) * g.cout;  // the first row of the tile
    const int64_t dw_left = dw_size - ((c.kh0 * g.kw + c.kw0) * g.cin + ic0) * g.cout;
    for (int64_t j = 0; j < g.cout; j += kLanes) {
      const int64_t n = g.cout - j;
      vf16 acc[NR];
      for (int r = 0; r < NR; ++r) {
        const int64_t at = r * g.cout + j;
        acc[r] = at + kLanes <= dw_left ? load16(dw + at) : load_n(dw + at, n);
      }
      Pixel q;
      for (int64_t d = j; d < size; d += g.cout, q.next(g)) {
        // Lanes past n carry the next dy row, or zeros at the end of dy;
        // they are never stored.
        const vf16 dv = d + kLanes <= size ? load16(dy + d) : load_n(dy + d, size - d);
        const float* xs = src + c.at(q) + ic0;
        for (int r = 0; r < NR; ++r) acc[r] += xs[r] * dv;
      }
      for (int r = 0; r < NR; ++r) store_n(dw + r * g.cout + j, acc[r], n);
    }
  }
};

/// dcol rows of kPixGroup pixels x NT*16 taps: `0 + sum_oc dy * w`, oc
/// ascending, from dy rows (stride cout) and w^T rows (stride kpad, offset
/// to the first tap); written to `s` rows of stride kpad.
template <int NT>
struct DxTile {
  static void run(const float* dy, int64_t cout, const float* wt, int64_t kpad, float* s) {
    vf16 acc[kPixGroup][NT];
    for (int i = 0; i < kPixGroup; ++i)
      for (int t = 0; t < NT; ++t) acc[i][t] = splat(0.0f);
    for (int64_t oc = 0; oc < cout; ++oc) {
      vf16 wv[NT];
      for (int t = 0; t < NT; ++t) wv[t] = load16(wt + oc * kpad + t * kLanes);
      for (int i = 0; i < kPixGroup; ++i)
        for (int t = 0; t < NT; ++t) acc[i][t] += dy[i * cout + oc] * wv[t];
    }
    for (int i = 0; i < kPixGroup; ++i)
      for (int t = 0; t < NT; ++t) store16(s + i * kpad + t * kLanes, acc[i][t]);
  }
};

/// dx for images [lo, hi): pixels ascending, as the reference loop, each
/// pixel's dcol row added at its window in the source view — dx itself, or
/// a zero-padded copy of the images; different images never share a dx
/// element.
void dx_images(const float* dy, const float* wt, float* dx, const ConvPlan& c, int64_t lo,
               int64_t hi) {
  const ConvGeom& g = c.g;
  const int64_t per_image = g.oh * g.ow, p1 = hi * per_image;
  ConvPanels& cp = conv_panels();
  float* s = panel(cp.cols, kPixGroup * c.kpad);
  float* view = dx + lo * g.h * g.w * g.cin;
  if (!c.direct) {
    view = panel(cp.dx, (hi - lo) * c.image_size());
    c.pad_images(dx, lo, hi, view);
  }
  Pixel q(g, lo * per_image);
  for (int64_t p = lo * per_image; p < p1; p += kPixGroup) {
    const int64_t pn = std::min<int64_t>(kPixGroup, p1 - p);
    const float* d = dy + p * g.cout;
    if (pn < kPixGroup) {  // pad the last group with zero rows
      float* t = panel(cp.acc, kPixGroup * g.cout);
      std::fill(std::copy(d, d + pn * g.cout, t), t + kPixGroup * g.cout, 0.0f);
      d = t;
    }
    for (int64_t v = 0; v < c.kpad / kLanes; v += kTapVecs) {
      const int nt = static_cast<int>(std::min<int64_t>(kTapVecs, c.kpad / kLanes - v));
      with_count<DxTile, kTapVecs>(nt, d, g.cout, wt + v * kLanes, c.kpad, s + v * kLanes);
    }
    for (int64_t i = 0; i < pn; ++i, q.next(g)) {
      float* at = view + (q.ni - lo) * c.image_size() + c.in_image(q);
      for (int64_t a = 0; a < c.kh1 - c.kh0; ++a)
        add_into(at + a * c.pw * g.cin, s + i * c.kpad + a * c.row, c.row);
    }
  }
  if (!c.direct) c.unpad_images(view, lo, hi, dx);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

int parse_thread_count(const char* text, int fallback, std::string* reason) {
  if (reason != nullptr) reason->clear();
  const auto reject = [&](const char* why) {
    if (reason != nullptr) *reason = why;
    return fallback;
  };
  if (text == nullptr || *text == '\0') return reject("empty value");
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text) return reject("not an integer");
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  if (*end != '\0') return reject("trailing garbage after the number");
  if (n < 1) return reject("below 1");
  if (errno == ERANGE || n > kMaxComputeThreads) {
    if (reason != nullptr)
      *reason = "above the maximum of " + std::to_string(kMaxComputeThreads) +
                ", clamped";
    return kMaxComputeThreads;
  }
  return static_cast<int>(n);
}

void set_compute_threads(int n) noexcept {
  int v = n;
  if (n <= 0) {
    v = hardware_threads();  // documented reset-to-hardware-default
  } else if (n > kMaxComputeThreads) {
    v = kMaxComputeThreads;
    log_warn("set_compute_threads(", n, ") above the maximum, clamped to ", v);
  }
  g_compute_threads.store(v, std::memory_order_relaxed);
}

int compute_threads() noexcept {
  int v = g_compute_threads.load(std::memory_order_relaxed);
  if (v == 0) {
    v = threads_from_env();
    g_compute_threads.store(v, std::memory_order_relaxed);
  }
  return v;
}

// Reuses the nested-dispatch guard: a thread marked "in a compute chunk"
// always takes dispatch_tiles' serial path.
ScopedSerialKernels::ScopedSerialKernels() noexcept : prev_(tl_in_compute_chunk) {
  tl_in_compute_chunk = true;
}

ScopedSerialKernels::~ScopedSerialKernels() { tl_in_compute_chunk = prev_; }

void set_call_observer(CallObserver fn) noexcept {
  g_observer.store(fn, std::memory_order_relaxed);
}

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  observe(KernelCall::Op::kGemmNN, nullptr, m, n, k);
  const int64_t flops = 2 * m * n * k;
  timed(flops, record_matmul, prof::Phase::kGemm, [&] {
    gemm_2d({a, k, false, b, n, false, c, m, n, k, accumulate}, flops);
  });
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  observe(KernelCall::Op::kGemmTN, nullptr, m, n, k);
  const int64_t flops = 2 * m * n * k;
  timed(flops, record_matmul, prof::Phase::kGemm, [&] {
    gemm_2d({a, m, true, b, n, false, c, m, n, k, accumulate}, flops);
  });
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  observe(KernelCall::Op::kGemmNT, nullptr, m, n, k);
  const int64_t flops = 2 * m * n * k;
  timed(flops, record_matmul, prof::Phase::kGemm, [&] {
    gemm_2d({a, k, false, b, k, true, c, m, n, k, accumulate}, flops);
  });
}

ConvGeom conv1d_geom(int64_t n, int64_t len, int64_t cin, int64_t k, int64_t cout,
                     int64_t olen, int64_t stride, int64_t pad) noexcept {
  ConvGeom g;
  g.n = n;
  g.h = 1;
  g.w = len;
  g.cin = cin;
  g.kh = 1;
  g.kw = k;
  g.cout = cout;
  g.oh = 1;
  g.ow = olen;
  g.stride = stride;
  g.pad_h = 0;
  g.pad_w = pad;
  return g;
}

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g) {
  const int64_t rows = g.patch_rows();
  if (rows <= 0 || g.cout <= 0) return;
  observe(KernelCall::Op::kConvForward, &g);
  timed(g.flops(), record_conv, prof::Phase::kConv, [&] {
    const ConvPlan c(g);
    ConvPanels& cp = conv_panels();
    // The window's kernel rows and the bias, each followed by a vector of
    // slack for the tiles' whole-vector loads (used in place when every
    // load stays inside them).
    const float* wp = w + (c.kh0 * g.kw + c.kw0) * g.cin * g.cout;
    const float* bp = bias;
    if (g.cout % kLanes != 0 || bias == nullptr ||
        (c.kh1 - c.kh0 > 1 && c.kw1 - c.kw0 < g.kw)) {
      float* packed = panel(cp.w, (c.k + 1) * g.cout + 2 * kLanes);
      float* to = packed;
      for (int64_t kh = c.kh0; kh < c.kh1; ++kh, to += c.row * g.cout)
        std::copy_n(w + (kh * g.kw + c.kw0) * g.cin * g.cout, c.row * g.cout, to);
      std::fill(to, to + kLanes, 0.0f);
      float* padded = to + kLanes;
      std::fill(padded, padded + g.cout + kLanes, 0.0f);
      if (bias != nullptr) std::copy_n(bias, g.cout, padded);
      wp = packed;
      bp = padded;
    }
    const float* src = source_view(x, c, cp);
    dispatch_tiles((rows + kPixBlock - 1) / kPixBlock, static_cast<double>(g.flops()),
                   [&](int64_t lo, int64_t hi) { forward_pixels(src, wp, bp, y, c, lo, hi); });
    if (c.full) return;
    // The taps outside the window: their summary term z changes a bit only
    // if one of their weights is NaN or infinite or some y is -0 — and a
    // chain `bias + ...` ends at -0 only if it starts there.
    const int64_t tap_size = g.cin * g.cout;
    bool needed = bias != nullptr && any_negative_zero(bias, g.cout);
    c.for_each_dead_run([&](int64_t t0, int64_t t1) {
      needed = needed || any_nonfinite(w + t0 * tap_size, (t1 - t0) * tap_size);
    });
    if (!needed) return;
    float* __restrict__ z = panel(cp.z, g.cout);
    std::fill(z, z + g.cout, -0.0f);
    c.for_each_dead_run([&](int64_t t0, int64_t t1) {
      add_zero_terms(w + t0 * tap_size, (t1 - t0) * g.cin, g.cout, z);
    });
    for (int64_t p = 0; p < rows; ++p)
      for (int64_t oc = 0; oc < g.cout; ++oc) y[p * g.cout + oc] += z[oc];
  });
}

void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g) {
  const int64_t rows = g.patch_rows();
  if (rows <= 0 || g.cout <= 0) return;
  observe(dx != nullptr ? KernelCall::Op::kConvBackward : KernelCall::Op::kConvBackwardNoDx,
          &g);
  timed((dx != nullptr ? 3 : 2) * g.flops(), record_conv, prof::Phase::kConv, [&] {
    // db: patch-ascending, matching the naive (ni, yo, xo) loop order.
    if (db != nullptr) {
      float* __restrict__ acc = db;
      for (int64_t p = 0; p < rows; ++p) {
        const float* __restrict__ dyrow = dy + p * g.cout;
        for (int64_t oc = 0; oc < g.cout; ++oc) acc[oc] += dyrow[oc];
      }
    }
    const ConvPlan c(g);
    ConvPanels& cp = conv_panels();
    const float* src = source_view(x, c, cp);
    // Lanes on output channels when they fill more vectors than the taps.
    const int64_t oc_vecs = (g.cout + kLanes - 1) / kLanes;
    if (c.k == g.cin && g.cin * oc_vecs < g.cout * (c.kpad / kLanes)) {
      dispatch_tiles((g.cin + kChannelRows - 1) / kChannelRows, static_cast<double>(g.flops()),
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t ic0 = lo * kChannelRows; ic0 < std::min(hi * kChannelRows, g.cin);
                            ic0 += kChannelRows)
                         with_count<DwChannelTile, kChannelRows>(
                             static_cast<int>(std::min<int64_t>(kChannelRows, g.cin - ic0)), src,
                             c, dy, dw, ic0);
                     });
    } else {
      dispatch_tiles((c.kpad + kTapChunk - 1) / kTapChunk, static_cast<double>(g.flops()),
                     [&](int64_t lo, int64_t hi) { dw_chunks(src, dy, dw, c, lo, hi); });
    }
    if (!c.full) {
      // Kernel rows outside the window only ever meet zero inputs: their
      // chains are dw_old + z, z = -0 + sum_p dy * 0, which changes a bit
      // only if some dy is NaN or infinite or some of those dw are -0.
      const int64_t tap_size = g.cin * g.cout;
      bool needed = any_nonfinite(dy, rows * g.cout);
      c.for_each_dead_run([&](int64_t t0, int64_t t1) {
        needed = needed || any_negative_zero(dw + t0 * tap_size, (t1 - t0) * tap_size);
      });
      if (needed) {
        float* __restrict__ z = panel(cp.z, g.cout);
        std::fill(z, z + g.cout, -0.0f);
        add_zero_terms(dy, rows, g.cout, z);
        c.for_each_dead_run([&](int64_t t0, int64_t t1) {
          for (int64_t row = t0 * g.cin; row < t1 * g.cin; ++row)
            for (int64_t oc = 0; oc < g.cout; ++oc) dw[row * g.cout + oc] += z[oc];
        });
      }
    }
    if (dx == nullptr) return;
    // w^T over the window, zero-padded to whole vectors of taps.
    float* wt = panel(cp.w, g.cout * c.kpad);
    std::fill(wt, wt + g.cout * c.kpad, 0.0f);
    c.for_each_column([&](int64_t r, int64_t row) {
      for (int64_t oc = 0; oc < g.cout; ++oc) wt[oc * c.kpad + r] = w[row * g.cout + oc];
    });
    dispatch_tiles(g.n, static_cast<double>(g.flops()),
                   [&](int64_t lo, int64_t hi) { dx_images(dy, wt, dx, c, lo, hi); });
  });
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

namespace naive {

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  // ikj loop order: streams through B and C rows, cache-friendly row-major.
  // No `a == 0` skip: FLOPs stay shape-determined and 0 * NaN propagates.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = c[i * n + j];
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[i * n + j] = acc;
    }
  }
}

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g) {
  for (int64_t ni = 0; ni < g.n; ++ni) {
    for (int64_t yo = 0; yo < g.oh; ++yo) {
      for (int64_t xo = 0; xo < g.ow; ++xo) {
        float* out = y + ((ni * g.oh + yo) * g.ow + xo) * g.cout;
        for (int64_t oc = 0; oc < g.cout; ++oc) out[oc] = bias != nullptr ? bias[oc] : 0.0f;
        for (int64_t kh = 0; kh < g.kh; ++kh) {
          const int64_t yi = yo * g.stride + kh - g.pad_h;
          if (yi < 0 || yi >= g.h) continue;
          for (int64_t kw = 0; kw < g.kw; ++kw) {
            const int64_t xi = xo * g.stride + kw - g.pad_w;
            if (xi < 0 || xi >= g.w) continue;
            const float* in = x + ((ni * g.h + yi) * g.w + xi) * g.cin;
            const float* ker = w + (kh * g.kw + kw) * g.cin * g.cout;
            for (int64_t ic = 0; ic < g.cin; ++ic) {
              const float xv = in[ic];
              const float* krow = ker + ic * g.cout;
              for (int64_t oc = 0; oc < g.cout; ++oc) out[oc] += xv * krow[oc];
            }
          }
        }
      }
    }
  }
}

void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g) {
  for (int64_t ni = 0; ni < g.n; ++ni) {
    for (int64_t yo = 0; yo < g.oh; ++yo) {
      for (int64_t xo = 0; xo < g.ow; ++xo) {
        const float* dout = dy + ((ni * g.oh + yo) * g.ow + xo) * g.cout;
        if (db != nullptr)
          for (int64_t oc = 0; oc < g.cout; ++oc) db[oc] += dout[oc];
        for (int64_t kh = 0; kh < g.kh; ++kh) {
          const int64_t yi = yo * g.stride + kh - g.pad_h;
          if (yi < 0 || yi >= g.h) continue;
          for (int64_t kw = 0; kw < g.kw; ++kw) {
            const int64_t xi = xo * g.stride + kw - g.pad_w;
            if (xi < 0 || xi >= g.w) continue;
            const float* in = x + ((ni * g.h + yi) * g.w + xi) * g.cin;
            float* din = dx + ((ni * g.h + yi) * g.w + xi) * g.cin;
            for (int64_t ic = 0; ic < g.cin; ++ic) {
              const float xv = in[ic];
              float* dker = dw + ((kh * g.kw + kw) * g.cin + ic) * g.cout;
              const float* ker = w + ((kh * g.kw + kw) * g.cin + ic) * g.cout;
              float acc = 0.0f;
              for (int64_t oc = 0; oc < g.cout; ++oc) {
                dker[oc] += xv * dout[oc];
                acc += ker[oc] * dout[oc];
              }
              din[ic] += acc;
            }
          }
        }
      }
    }
  }
}

}  // namespace naive

}  // namespace swt::kernels
