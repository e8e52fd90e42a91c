// End-to-end benchmark for parmvn: confidence-region detection on the dense
// and TLR arms (core::detect_confidence_regions, cold) and closed-loop
// bisection traffic through serve::Server::submit.
//
//   perfbench --workload <crd_wind_dense|crd_synth_tlr|serve_bisect>
//             --seed <n> --seconds <s> --trace <0|1> [--workers <w>]
//             [--arm dense|tlr]
//
// The seed generates every input; the library sees only those inputs. Each
// run sets up, runs whole operations for --seconds, checks every output
// against references computed apart from the library (reference.hpp), and
// prints one JSON line last: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Per-layer numbers come from a runtime
// built with tracing on (task time aggregated by task name) and from timing
// calls into each layer's public functions; end-to-end numbers only ever
// come from untraced runs. --workers and --arm exist for the reference
// figures in README.md (one worker; the dense arm on the TLR field).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/excursion.hpp"
#include "dist/cost_model.hpp"
#include "dist/distributed_pmvn.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "ep/ep_screen.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "geo/wind.hpp"
#include "reference.hpp"
#include "runtime/runtime.hpp"
#include "serve/server.hpp"
#include "stats/covariance.hpp"
#include "tlr/tlr_matrix.hpp"

namespace {

using namespace parmvn;
using Clock = std::chrono::steady_clock;

// Initialised before main runs: set-up time is measured from here.
const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int workers = 4;
  std::string arm;  // crd_synth_tlr only: "dense" runs its field on the dense arm
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  bool correct = true;
  std::string why;  // first failed check
  i64 attempted = 0;
  i64 failed = 0;
  Metrics metrics;

  void require(const std::string& failure) {
    if (failure.empty() || !correct) return;
    correct = false;
    why = failure;
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Every per-layer metric, reported on every workload; a layer that does no
// work on a workload reads 0 there (README.md lists where each applies).
Metrics per_layer_template() {
  Metrics m;
  const std::pair<const char*, const char*> names[] = {
      {"geo.generate_s", "s"},         {"tile.factor_s", "s"},
      {"tile.blas_s", "s"},            {"tile.gflops", "GFlop/s"},
      {"linalg.dgemm_gflops", "GFlop/s"},
      {"tlr.factor_s", "s"},           {"tlr.compress_s", "s"},
      {"tlr.update_s", "s"},           {"tlr.panel_s", "s"},
      {"tlr.mean_rank", "count"},      {"tlr.factor_mb", "MB"},
      {"engine.sweep_s", "s"},         {"engine.qmc_s", "s"},
      {"engine.update_s", "s"},        {"engine.init_s", "s"},
      {"engine.entries_per_s", "Mentries/s"},
      {"stats.integrand_entries_per_s", "Mentries/s"},
      {"engine.host_s", "s"},          {"engine.samples", "count"},
      {"runtime.tasks", "count"},      {"runtime.idle_s", "s"},
      {"runtime.task_overhead_us", "us"},
      {"ep.screen_ms", "ms"},          {"ep.retired_frac", "ratio"},
      {"ep.sweeps", "count"},          {"serve.batch_size", "requests"},
      {"serve.eval_ms", "ms"},         {"serve.wait_ms", "ms"},
      {"serve.cache_hit_frac", "ratio"},
      {"core.host_s", "s"},            {"trace.latency_p50_ms", "ms"},
  };
  for (const auto& [name, unit] : names) m[name] = Metric{0.0, unit};
  return m;
}

void set(Metrics& m, const std::string& name, double value) {
  auto it = m.find(name);
  if (it == m.end()) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
}

// Probes of the layer ceilings, independent of the workload.
void probe_ceilings(Metrics& m, dist::HostCalibration* cal_out) {
  const dist::HostCalibration cal = dist::calibrate_host(256);
  set(m, "linalg.dgemm_gflops", cal.gflops);
  set(m, "stats.integrand_entries_per_s", 1e3 / cal.qmc_ns_per_entry);
  if (cal_out != nullptr) *cal_out = cal;

  // Runtime per-task overhead: trivial tasks, independent and chained.
  constexpr int kTasks = 20000;
  rt::Runtime probe(4);
  const WallTimer t_ind;
  for (int i = 0; i < kTasks; ++i) probe.submit("probe", {}, [] {});
  probe.wait_all();
  const double ind_s = t_ind.seconds();
  const rt::DataHandle h = probe.register_data("chain");
  const WallTimer t_chain;
  for (int i = 0; i < kTasks; ++i)
    probe.submit("probe", {{h, rt::Access::kReadWrite}}, [] {});
  probe.wait_all();
  const double chain_s = t_chain.seconds();
  std::fprintf(stderr, "runtime probe: %.3f us/task independent, %.3f us/task chained\n",
               1e6 * ind_s / kTasks, 1e6 * chain_s / kTasks);
  set(m, "runtime.task_overhead_us", 1e6 * (ind_s + chain_s) / (2.0 * kTasks));
}

// ---------------------------------------------------------------------------
// Confidence-region detection workloads.

// One covariance model, written out twice: as the library's generator and
// as the reference's own kernel evaluation.
struct Field {
  geo::LocationSet locs;
  double sigma2 = 1.0, range = 0.1, nu = 0.5, nugget = 0.0;
  std::shared_ptr<const geo::KernelCovGenerator> cov;

  Field(geo::LocationSet l, double s2, double r, double v, double ng)
      : locs(std::move(l)), sigma2(s2), range(r), nu(v), nugget(ng) {
    std::shared_ptr<const stats::CovKernel> k;
    if (nu == 0.5)
      k = std::make_shared<stats::ExponentialKernel>(sigma2, range);
    else
      k = std::make_shared<stats::MaternKernel>(sigma2, range, nu);
    cov = std::make_shared<geo::KernelCovGenerator>(locs, k, nugget);
  }
  i64 n() const { return static_cast<i64>(locs.size()); }
  double sd() const { return std::sqrt(sigma2 + nugget); }
  // Reference correlation between original locations i and j.
  double corr(i64 i, i64 j) const {
    if (i == j) return 1.0;
    const geo::Point& a = locs[static_cast<std::size_t>(i)];
    const geo::Point& b = locs[static_cast<std::size_t>(j)];
    const double d = std::hypot(a.x - b.x, a.y - b.y);
    return perfbench::matern(d, sigma2, range, nu) / (sigma2 + nugget);
  }
};

// A smooth random mean surface: a low base with six Gaussian bumps at
// random places. `spread` in [0, 1] scales how much their heights and
// widths vary around 2.25 and 0.14.
std::vector<double> bump_mean(const geo::LocationSet& locs, u64 seed, double spread) {
  perfbench::Rng rng(seed);
  struct Bump {
    double x, y, amp, width;
  };
  std::vector<Bump> bumps(6);
  for (Bump& b : bumps) {
    b.x = rng.uniform();
    b.y = rng.uniform();
    b.amp = 2.25 + 0.75 * spread * (2.0 * rng.uniform() - 1.0);
    b.width = 0.14 + 0.06 * spread * (2.0 * rng.uniform() - 1.0);
  }
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    double v = -1.0;
    for (const Bump& b : bumps) {
      const double dx = locs[i].x - b.x, dy = locs[i].y - b.y;
      v += b.amp * std::exp(-(dx * dx + dy * dy) / (2.0 * b.width * b.width));
    }
    mean[i] = v;
  }
  return mean;
}

struct CrdInputs {
  std::unique_ptr<Field> field;
  std::vector<std::vector<double>> means;  // one per operation, cycled
  core::CrdOptions opts;
  std::vector<core::CrdQuery> queries;     // ascending margins, then calm
  int above = 0;                           // leading kAbove queries
};

// The siting ladder of the paper's Sec. V-C2: margins above the break-even
// threshold plus the calm complement, at 95% joint confidence.
void add_ladder(CrdInputs& in) {
  for (const double margin : {-0.25, 0.0, 0.25, 0.5}) {
    in.queries.push_back({margin, 0.05, core::CrdDirection::kAbove, std::nullopt});
    ++in.above;
  }
  in.queries.push_back({0.0, 0.05, core::CrdDirection::kBelow, std::nullopt});
}

CrdInputs wind_inputs(const Args& args) {
  CrdInputs in;
  geo::WindOptions wo;
  wo.grid_nx = 48;
  wo.grid_ny = 36;
  wo.seed = args.seed;
  const geo::WindDataset data = geo::simulate_wind(wo);
  const i64 n = static_cast<i64>(data.locations.size());
  // Fixed Matérn parameters (the paper's smoothness) keep the MLE out of
  // the timed path; the covariance acts on the unit-square grid.
  in.field = std::make_unique<Field>(geo::regular_grid(wo.grid_nx, wo.grid_ny), 1.0,
                                     wo.gp_range, wo.gp_smoothness, 1e-6);
  // Each day standardised: X > 4 m/s  <=>  Z > (4 - speed)/sd, so the mean
  // on the standardised scale is (speed - 4)/sd and the threshold is 0.
  for (i64 d = 0; d < data.daily_speed.cols(); ++d) {
    std::vector<double> mean(static_cast<std::size_t>(n));
    for (i64 i = 0; i < n; ++i)
      mean[static_cast<std::size_t>(i)] =
          (data.daily_speed(i, d) - 4.0) / data.moments.sd[static_cast<std::size_t>(i)];
    in.means.push_back(std::move(mean));
  }
  in.opts.mode = core::CrdMode::kDense;
  in.opts.tile = 256;
  add_ladder(in);
  return in;
}

CrdInputs synth_inputs(const Args& args) {
  CrdInputs in;
  // n = 576 with 128-wide tiles: TLR factorization is most of every
  // operation, and an operation takes a third of a second, so a run holds
  // enough of them for a steady median (at n = 1728 one takes ~6 s).
  constexpr i64 kSide = 24;
  geo::LocationSet locs = geo::regular_grid(kSide, kSide);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  // The paper's synthetic exponential field at medium correlation; the
  // nugget is the usual stabiliser for TLR-truncated factors.
  in.field = std::make_unique<Field>(std::move(locs), 1.0, 0.1, 0.5, 1e-2);
  // Each operation's mean is a bump surface plus a realisation of the
  // field itself, drawn with the reference's own Cholesky. The realisation
  // scrambles the marginal ordering, which sets the TLR ranks; at full
  // amplitude every operation sees similar ranks, so similar cost.
  const i64 n = in.field->n();
  const int m = static_cast<int>(n);
  std::vector<double> c(static_cast<std::size_t>(n * n));
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < n; ++j) c[static_cast<std::size_t>(i * n + j)] = in.field->corr(i, j);
  const std::vector<double> l = perfbench::cholesky(c, m);
  perfbench::Rng rng(args.seed);
  for (u64 d = 0; d < 32; ++d) {
    std::vector<double> mean = bump_mean(in.field->locs, args.seed * 7919 + d, 1.0);
    std::vector<double> eps(static_cast<std::size_t>(n));
    for (double& e : eps) e = rng.normal();
    for (i64 i = 0; i < n; ++i) {
      double v = 0.0;
      for (i64 j = 0; j <= i; ++j)
        v += l[static_cast<std::size_t>(i * n + j)] * eps[static_cast<std::size_t>(j)];
      mean[static_cast<std::size_t>(i)] += v;
    }
    in.means.push_back(std::move(mean));
  }
  in.opts.mode = args.arm == "dense" ? core::CrdMode::kDense : core::CrdMode::kTlr;
  in.opts.tlr_tol = 1e-3;
  in.opts.tile = 128;
  add_ladder(in);
  return in;
}

// Standardised limits for a query, as the reference sees them: the event
// is Z_i > z_i (the calm query's X < u is the reflection -Z > -(u-mu)/sd).
std::vector<double> ref_limits(const Field& f, const std::vector<double>& mean,
                               const core::CrdQuery& q) {
  std::vector<double> z(mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double zi = (q.threshold - mean[i]) / f.sd();
    z[i] = q.direction == core::CrdDirection::kAbove ? zi : -zi;
  }
  return z;
}

perfbench::RegionOutput region_output(const core::CrdResult& r) {
  return {r.marginal, r.order, r.prefix_prob, r.confidence, r.region, r.region_size};
}

struct TraceSums {
  std::map<std::string, double> by_name;
  double total = 0.0;
  double engine_union = 0.0;  // union of engine-task intervals, per sweep
};

bool is_engine_task(const std::string& name) {
  return name == "pmvn_init" || name == "qmc" || name == "pmvn_update";
}

// Aggregate one operation's task records. Sweeps follow their factor in
// the trace (one ordering group at a time), so each run of consecutive
// engine tasks is one sweep; the union of its intervals is the time some
// worker was busy inside it.
TraceSums sum_trace(const std::vector<rt::TaskRecord>& recs, std::size_t lo, std::size_t hi) {
  TraceSums s;
  std::vector<const rt::TaskRecord*> ops;
  for (std::size_t i = lo; i < hi; ++i) ops.push_back(&recs[i]);
  std::sort(ops.begin(), ops.end(),
            [](auto* a, auto* b) { return a->start_s < b->start_s; });
  double cur_lo = 0.0, cur_hi = -1.0;
  bool in_sweep = false;
  for (const rt::TaskRecord* r : ops) {
    const double d = r->end_s - r->start_s;
    s.by_name[r->name] += d;
    s.total += d;
    if (!is_engine_task(r->name)) {
      if (in_sweep) s.engine_union += cur_hi - cur_lo;
      in_sweep = false;
      continue;
    }
    if (!in_sweep) {
      in_sweep = true;
      cur_lo = r->start_s;
      cur_hi = r->end_s;
    } else if (r->start_s > cur_hi) {
      s.engine_union += cur_hi - cur_lo;
      cur_lo = r->start_s;
      cur_hi = r->end_s;
    } else {
      cur_hi = std::max(cur_hi, r->end_s);
    }
  }
  if (in_sweep) s.engine_union += cur_hi - cur_lo;
  return s;
}

Outcome run_crd(const Args& args, bool tlr_workload) {
  Outcome out;
  CrdInputs in = tlr_workload ? synth_inputs(args) : wind_inputs(args);
  const Field& field = *in.field;
  const i64 n = field.n();
  in.opts.pmvn.samples_per_shift = 100;
  in.opts.pmvn.shifts = 10;
  in.opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  const bool traced = args.trace != 0;
  rt::Runtime rt(args.workers, traced);
  // Traced runs route factors through a cache so the TLR factor can be
  // fetched afterwards; every operation has its own ordering, so each
  // lookup still misses and factors cold, as in the untraced runs.
  engine::FactorCache cache(2);
  engine::FactorCache* cache_ptr = traced ? &cache : nullptr;

  struct Op {
    std::vector<core::CrdResult> res;
    std::size_t mean_index = 0;
    double latency_s = 0.0;
    i64 tasks = 0;
    std::size_t trace_lo = 0, trace_hi = 0;
  };
  std::vector<Op> ops;
  // One untimed operation on an input the timed phase reaches last: worker
  // start-up, allocator growth and first-touch page faults land in set-up,
  // so the timed operations are alike. Nothing is cached between calls.
  in.opts.pmvn.seed = args.seed;
  (void)core::detect_confidence_regions(rt, *field.cov, in.means.back(), in.opts, in.queries);
  const double setup_s = since(g_process_start);
  const Clock::time_point t_timed = Clock::now();
  while (since(t_timed) < args.seconds) {
    Op op;
    op.mean_index = ops.size() % in.means.size();
    in.opts.pmvn.seed = args.seed * 1000003 + ops.size();
    op.trace_lo = traced ? rt.trace().size() : 0;
    const i64 tasks0 = rt.tasks_executed();
    const Clock::time_point t0 = Clock::now();
    op.res = core::detect_confidence_regions(rt, *field.cov, in.means[op.mean_index], in.opts,
                                             in.queries, cache_ptr);
    op.latency_s = since(t0);
    op.tasks = rt.tasks_executed() - tasks0;
    op.trace_hi = traced ? rt.trace().size() : 0;
    ops.push_back(std::move(op));
  }
  const double timed_s = since(t_timed);
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr, "%zu operations in %.3f s, setup %.3f s; latencies (ms):", ops.size(),
               timed_s, setup_s);
  for (const Op& op : ops) std::fprintf(stderr, " %.0f", 1e3 * op.latency_s);
  std::fprintf(stderr, "\n");

  // ---- correctness: properties on every output, Monte Carlo on the first
  // operation's regions.
  const double level_err =
      perfbench::mc_err3(1.0 - in.queries.front().alpha, in.opts.pmvn.total_samples());
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    const Op& op = ops[oi];
    const std::vector<double>& mean = in.means[op.mean_index];
    std::vector<perfbench::RegionOutput> outs;
    for (std::size_t qi = 0; qi < in.queries.size(); ++qi) {
      ++out.attempted;
      const core::CrdResult& r = op.res[qi];
      if (!r.status.ok()) {
        ++out.failed;
        outs.emplace_back();
        continue;
      }
      outs.push_back(region_output(r));
      out.require(perfbench::check_region_properties(outs.back(),
                                                     ref_limits(field, mean, in.queries[qi]),
                                                     in.queries[qi].alpha));
    }
    std::vector<const perfbench::RegionOutput*> ladder;
    for (int qi = 0; qi < in.above; ++qi)
      if (op.res[static_cast<std::size_t>(qi)].status.ok()) ladder.push_back(&outs[qi]);
    out.require(perfbench::check_nested(ladder));
    if (oi != 0) continue;
    for (std::size_t qi = 0; qi < in.queries.size(); ++qi) {
      if (!op.res[qi].status.ok()) continue;
      out.require(perfbench::check_region_mc(
          outs[qi], ref_limits(field, mean, in.queries[qi]), in.queries[qi].alpha, level_err,
          [&](i64 i, i64 j) { return field.corr(i, j); }, args.seed * 31 + qi, 4));
    }
  }

  std::vector<double> lat;
  for (const Op& op : ops) lat.push_back(op.latency_s);
  const double nops = static_cast<double>(ops.size());
  if (!traced) {
    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["queries_per_s"] = {static_cast<double>(out.attempted - out.failed) / timed_s,
                                    "1/s"};
    out.metrics["latency_p50_ms"] = {1e3 * quantile(lat, 0.5), "ms"};
    out.metrics["latency_p90_ms"] = {1e3 * quantile(lat, 0.9), "ms"};
    out.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    return out;
  }

  // ---- per-layer attribution (traced run)
  Metrics m = per_layer_template();
  dist::HostCalibration cal;
  probe_ceilings(m, &cal);
  const bool dense = in.opts.mode == core::CrdMode::kDense;
  double factor_s = 0, sweep_s = 0, samples = 0, entries = 0, factorizations = 0;
  double host_s = 0, idle_s = 0, tasks = 0;
  std::map<std::string, double> by_name;
  for (const Op& op : ops) {
    double op_factor = 0, op_sweep = 0;
    for (const core::CrdResult& r : op.res) {
      op_factor += r.factor_seconds;
      op_sweep += r.sweep_seconds;
      samples += static_cast<double>(r.samples_used);
      entries += static_cast<double>(r.samples_used) * static_cast<double>(n);
      if (r.factor_seconds > 0) ++factorizations;
    }
    factor_s += op_factor;
    sweep_s += op_sweep;
    const TraceSums ts = sum_trace(rt.trace(), op.trace_lo, op.trace_hi);
    for (const auto& [name, t] : ts.by_name) by_name[name] += t;
    host_s += op_sweep - ts.engine_union;
    idle_s += args.workers * op.latency_s - ts.total;
    tasks += static_cast<double>(op.tasks);
  }
  const auto per_op = [&](double v) { return v / nops; };
  const auto task_s = [&](std::initializer_list<const char*> names) {
    double t = 0;
    for (const char* nm : names) t += by_name.count(nm) ? by_name[nm] : 0.0;
    return t;
  };
  set(m, "geo.generate_s", per_op(task_s({"generate", "tlr_gen_diag"})));
  set(m, dense ? "tile.factor_s" : "tlr.factor_s", per_op(factor_s));
  if (dense) {
    const double blas = task_s({"potrf", "trsm", "syrk", "gemm"});
    set(m, "tile.blas_s", per_op(blas));
    const double nd = static_cast<double>(n);
    set(m, "tile.gflops", factorizations * nd * nd * nd / 3.0 / blas / 1e9);
  } else {
    set(m, "tlr.compress_s", per_op(task_s({"tlr_compress"})));
    set(m, "tlr.update_s", per_op(task_s({"tlr_gemm"})));
    set(m, "tlr.panel_s", per_op(task_s({"tlr_potrf", "tlr_trsm", "tlr_syrk"})));
    // The last operation's kAbove factor is still cached: a lookup hits.
    const core::CrdResult& last = ops.back().res.front();
    engine::FactorSpec spec;
    spec.kind = engine::FactorKind::kTlr;
    spec.tile = in.opts.tile;
    spec.tlr_tol = in.opts.tlr_tol;
    spec.tlr_max_rank = in.opts.tlr_max_rank;
    bool hit = false;
    const auto factor = cache.get_or_factor(rt, *field.cov, last.order, spec, {}, &hit);
    if (!hit) std::fprintf(stderr, "perfbench: TLR factor lookup missed the cache\n");
    set(m, "tlr.mean_rank", factor->tlr().mean_offdiag_rank());
    set(m, "tlr.factor_mb", static_cast<double>(factor->tlr().memory_bytes()) / 1048576.0);
  }
  const double qmc_s = task_s({"qmc"});
  set(m, "engine.sweep_s", per_op(sweep_s));
  set(m, "engine.qmc_s", per_op(qmc_s));
  set(m, "engine.update_s", per_op(task_s({"pmvn_update"})));
  set(m, "engine.init_s", per_op(task_s({"pmvn_init"})));
  set(m, "engine.entries_per_s", entries / qmc_s / 1e6);
  set(m, "engine.host_s", per_op(host_s));
  set(m, "engine.samples", per_op(samples));
  set(m, "runtime.tasks", per_op(tasks));
  set(m, "runtime.idle_s", per_op(idle_s));
  double lat_sum = 0;
  for (const double l : lat) lat_sum += l;
  set(m, "core.host_s", per_op(lat_sum - factor_s - sweep_s));
  set(m, "trace.latency_p50_ms", 1e3 * quantile(lat, 0.5));

  if (dense) {
    // The cost model's one-node prediction for one integration next to the
    // measured factor + sweep makespan of one.
    dist::DistConfig dc;
    dc.n = n;
    dc.tile = in.opts.tile;
    dc.qmc_samples = in.opts.pmvn.total_samples();
    dc.nodes = 1;
    dc.machine = dist::calibrated_machine(cal);
    dc.machine.cores_per_node = args.workers;
    const dist::DistPrediction pred = dist::predict_pmvn(dc);
    std::fprintf(stderr,
                 "predict_pmvn(nodes=1, calibrated, %d cores): %.4f s (chol %.4f s); measured "
                 "factor + sweep per integration group: %.4f s\n",
                 args.workers, pred.total_s, pred.chol_s,
                 (factor_s + sweep_s) / std::max(1.0, factorizations));
  }
  out.metrics = std::move(m);
  return out;
}

// ---------------------------------------------------------------------------
// Serving workload: closed-loop bisection clients.

constexpr int kClients = 3;
constexpr int kLadder = 8;
constexpr double kAlpha = 0.05;

struct ServeField {
  std::string name;
  std::unique_ptr<Field> field;
  std::vector<double> mean;  // original indexing
  std::vector<i64> order;    // descending mean
  double top = 0.0;          // largest mean
};

struct Sent {
  int field = 0;
  double threshold = 0.0;
  double latency_s = 0.0;
  serve::Response resp;
};

// Thresholds of one round: search s = round / 3 zooms three times around
// its target crossing, halving the ladder's width each round — the shape
// of a boundary bisection, fixed in advance so every run does comparable
// work whatever its timing.
std::vector<double> ladder_for(const ServeField& f, u64 seed, int client, int round) {
  perfbench::Rng rng(seed * 104729 + static_cast<u64>(client) * 7907 +
                     static_cast<u64>(round / 3));
  const double target = f.top - 1.4 - 0.5 * rng.uniform();
  const double width = 4.0 / static_cast<double>(1 << (round % 3));
  std::vector<double> u(kLadder);
  for (int j = 0; j < kLadder; ++j)
    u[static_cast<std::size_t>(j)] =
        target - 0.5 * width + width * static_cast<double>(j) / (kLadder - 1);
  return u;
}

std::vector<double> serve_limits(const ServeField& f, double u) {
  const i64 n = f.field->n();
  std::vector<double> a(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k)
    a[static_cast<std::size_t>(k)] =
        (u - f.mean[static_cast<std::size_t>(f.order[static_cast<std::size_t>(k)])]) /
        f.field->sd();
  return a;
}

Outcome run_serve(const Args& args) {
  Outcome out;
  const bool traced = args.trace != 0;
  constexpr i64 kSide = 32;
  geo::LocationSet locs = geo::regular_grid(kSide, kSide);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  std::vector<ServeField> fields(2);
  fields[0].name = "exp";
  fields[0].field = std::make_unique<Field>(locs, 1.0, 0.1, 0.5, 1e-6);
  fields[1].name = "matern15";
  fields[1].field = std::make_unique<Field>(locs, 1.0, 0.05, 1.5, 1e-6);
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    ServeField& f = fields[fi];
    // Nearly alike bumps: every seed serves fields of the same character,
    // so runs differ in their traffic, not in how hard the fields are.
    f.mean = bump_mean(locs, args.seed * 13 + fi, 0.2);
    f.order.resize(f.mean.size());
    std::iota(f.order.begin(), f.order.end(), i64{0});
    std::stable_sort(f.order.begin(), f.order.end(), [&](i64 x, i64 y) {
      return f.mean[static_cast<std::size_t>(x)] > f.mean[static_cast<std::size_t>(y)];
    });
    f.top = f.mean[static_cast<std::size_t>(f.order.front())];
  }

  serve::ServeOptions so;
  so.queue_capacity = 64;
  so.batch_window_ms = 2;
  // One client's ladder per batch: batches then follow the FIFO queue
  // round-robin instead of coalescing by chance, which made the queue
  // wait, and so the latency, swing from run to run.
  so.max_batch = kLadder;
  // Four shift blocks of 250: the same 1000-sample cap as ten of 100, in
  // fewer adaptive rounds, so fewer worker sleep/wake cycles per batch.
  // With ten rounds the same seed's median latency moved by ~18% between
  // runs on a shared 4-vCPU host, with four by ~9%.
  so.engine.samples_per_shift = 250;
  so.engine.shifts = 4;
  so.engine.sampler = stats::SamplerKind::kRichtmyer;
  so.engine.adaptive = true;
  so.engine.tiered = true;
  serve::Server server(so, args.workers);
  const engine::FactorSpec spec{engine::FactorKind::kDense, 256, 0.0, -1};
  for (const ServeField& f : fields) {
    serve::FieldSpec fs;
    fs.cov = f.field->cov;
    fs.order = f.order;
    fs.factor = spec;
    server.register_field(f.name, std::move(fs));
  }
  // Warm both factors into the cache: the timed phase measures serving.
  for (const ServeField& f : fields) {
    serve::Request warm;
    warm.field = f.name;
    warm.a = serve_limits(f, f.top);
    const serve::Response r = server.evaluate(std::move(warm));
    out.require(r.status.ok() ? "" : "warm-up request failed: " + r.status.message);
  }

  const serve::ServerStats stats0 = server.stats();
  const i64 tasks0 = server.runtime().tasks_executed();
  std::vector<std::vector<Sent>> sent(kClients);
  const double setup_s = since(g_process_start);
  const Clock::time_point t_timed = Clock::now();
  const auto client = [&](int c) {
    for (int round = 0; since(t_timed) < args.seconds; ++round) {
      const int fi = (c + round) % 2;
      const ServeField& f = fields[static_cast<std::size_t>(fi)];
      std::vector<std::future<serve::Response>> futs;
      std::vector<Clock::time_point> t0;
      const std::size_t base = sent[static_cast<std::size_t>(c)].size();
      for (const double u : ladder_for(f, args.seed, c, round)) {
        serve::Request req;
        req.field = f.name;
        req.a = serve_limits(f, u);
        req.seed = args.seed * 1000003 + static_cast<u64>(c) * 100003 +
                   sent[static_cast<std::size_t>(c)].size();
        req.prefix = true;
        req.decision = 1.0 - kAlpha;
        sent[static_cast<std::size_t>(c)].push_back({fi, u, 0.0, {}});
        t0.push_back(Clock::now());
        futs.push_back(server.submit(std::move(req)));
      }
      for (std::size_t j = 0; j < futs.size(); ++j) {
        Sent& s = sent[static_cast<std::size_t>(c)][base + j];
        s.resp = futs[j].get();
        s.latency_s = since(t0[j]);
      }
    }
  };
  std::vector<std::jthread> pool;  // also joins if the caller's share throws
  for (int c = 1; c < kClients; ++c) pool.emplace_back(client, c);
  client(0);
  for (auto& t : pool) t.join();
  const double timed_s = since(t_timed);
  const double rss_mb = peak_rss_mb();
  const serve::ServerStats stats1 = server.stats();
  const i64 tasks1 = server.runtime().tasks_executed();

  // ---- correctness
  std::vector<double> lat, eval_ms, wait_ms;
  double samples = 0, retired = 0;
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t j = 0; j < sent[static_cast<std::size_t>(c)].size(); ++j) {
      const Sent& s = sent[static_cast<std::size_t>(c)][j];
      ++out.attempted;
      if (!s.resp.status.ok()) {
        ++out.failed;
        continue;
      }
      if (s.resp.degrade != serve::DegradeRung::kNone)
        out.require("a batch ran at degradation rung " +
                    std::string(serve::to_string(s.resp.degrade)));
      lat.push_back(s.latency_s);
      eval_ms.push_back(1e3 * s.resp.result.seconds);
      wait_ms.push_back(1e3 * (s.latency_s - s.resp.result.seconds));
      samples += static_cast<double>(s.resp.result.samples_used);
      retired += s.resp.result.method == engine::EvalMethod::kEp ? 1 : 0;
      // The MC sample: every response of client 0's first round.
      if (c != 0 || j >= kLadder) continue;
      const ServeField& f = fields[static_cast<std::size_t>(s.field)];
      out.require(perfbench::check_response_mc(
          s.resp.result.prefix_prob, serve_limits(f, s.threshold), kAlpha,
          s.resp.result.error3sigma, s.resp.result.samples_used,
          s.resp.result.method == engine::EvalMethod::kEp,
          [&](i64 k, i64 l) {
            return f.field->corr(f.order[static_cast<std::size_t>(k)],
                                 f.order[static_cast<std::size_t>(l)]);
          },
          args.seed * 31 + j, 4));
    }
  }
  server.drain();
  if (server.handles_leaked() != 0) out.require("the serving runtime leaked handles");

  if (!traced) {
    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["queries_per_s"] = {static_cast<double>(lat.size()) / timed_s, "1/s"};
    out.metrics["latency_p50_ms"] = {1e3 * quantile(lat, 0.5), "ms"};
    out.metrics["latency_p90_ms"] = {1e3 * quantile(lat, 0.9), "ms"};
    out.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    return out;
  }

  Metrics m = per_layer_template();
  probe_ceilings(m, nullptr);
  const double nreq = static_cast<double>(lat.size());
  set(m, "engine.samples", samples / nreq);
  set(m, "runtime.tasks", static_cast<double>(tasks1 - tasks0) / nreq);
  set(m, "ep.retired_frac", retired / nreq);
  const double batches = static_cast<double>(stats1.batches - stats0.batches);
  set(m, "serve.batch_size",
      static_cast<double>(stats1.batched_queries - stats0.batched_queries) / batches);
  set(m, "serve.eval_ms", quantile(eval_ms, 0.5));
  set(m, "serve.wait_ms", quantile(wait_ms, 0.5));
  const double hits = static_cast<double>(stats1.cache.hits - stats0.cache.hits);
  const double misses = static_cast<double>(stats1.cache.misses - stats0.cache.misses);
  set(m, "serve.cache_hit_frac", hits / (hits + misses));
  set(m, "trace.latency_p50_ms", 1e3 * quantile(lat, 0.5));

  // EP screen cost on the served factors, replaying the run's limits.
  std::vector<double> screen_ms;
  double sweeps = 0;
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    const ServeField& f = fields[fi];
    const auto factor = server.cache().get_or_factor(server.runtime(), *f.field->cov, f.order,
                                                     spec);
    ep::EpScreener screener(factor->backend());
    const std::vector<double> b(static_cast<std::size_t>(f.field->n()),
                                std::numeric_limits<double>::infinity());
    for (const auto& client_sent : sent)
      for (const Sent& s : client_sent) {
        if (s.field != static_cast<int>(fi)) continue;
        const std::vector<double> a = serve_limits(f, s.threshold);
        const WallTimer t;
        const ep::EpResult er = screener.screen(a, b);
        screen_ms.push_back(1e3 * t.seconds());
        sweeps += er.sweeps;
      }
  }
  set(m, "ep.screen_ms", quantile(screen_ms, 0.5));
  set(m, "ep.sweeps", sweeps / static_cast<double>(screen_ms.size()));
  out.metrics = std::move(m);
  return out;
}

void print_result(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              o.correct ? "true" : "false", static_cast<long long>(o.attempted),
              static_cast<long long>(o.failed));
  bool first = true;
  for (const auto& [name, m] : o.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <crd_wind_dense|crd_synth_tlr|serve_bisect> "
               "--seed <n> --seconds <s> --trace <0|1> [--workers <w>] [--arm dense|tlr]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = std::stoi(v);
    else if (k == "--workers") args.workers = std::stoi(v);
    else if (k == "--arm") args.arm = v;
    else return usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0 || args.workers < 1 || args.workers > 64) return usage();
  Outcome o;
  if (args.workload == "crd_wind_dense") o = run_crd(args, false);
  else if (args.workload == "crd_synth_tlr") o = run_crd(args, true);
  else if (args.workload == "serve_bisect") o = run_serve(args);
  else return usage();
  if (!o.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", o.why.c_str());
  print_result(o);
  return 0;
}
