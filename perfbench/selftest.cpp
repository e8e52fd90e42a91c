// Self-test of the benchmark's correctness checks: a genuine library output
// must pass every check, and each deliberately corrupted copy of it must be
// rejected by the check meant to catch it.
//
//   python3 perfbench/run.py --self-test      (exit code 0 = all cases hold)
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/excursion.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "reference.hpp"
#include "runtime/runtime.hpp"
#include "serve/server.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;
using perfbench::RegionOutput;

int g_failures = 0;

void expect(bool pass_expected, const std::string& got, const char* what) {
  const bool passed = got.empty();
  const bool ok = passed == pass_expected;
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", what, got.empty() ? "" : ": ", got.c_str());
  if (!ok) ++g_failures;
}

// Recompute confidence, region and region_size from prefix_prob, as the
// program would: a corruption that stays self-consistent.
void refinalize(RegionOutput& r, double alpha) {
  double running = 1.0;
  for (std::size_t i = 0; i < r.order.size(); ++i) {
    running = std::min(running, r.prefix_prob[i]);
    r.confidence[static_cast<std::size_t>(r.order[i])] = running;
  }
  r.region_size = 0;
  for (std::size_t i = 0; i < r.region.size(); ++i) {
    r.region[i] = r.confidence[i] >= 1.0 - alpha;
    r.region_size += r.region[i];
  }
}

}  // namespace

int main() {
  constexpr i64 kSide = 12;
  constexpr double kRange = 0.15, kNugget = 1e-6, kAlpha = 0.05;
  const geo::LocationSet locs = geo::regular_grid(kSide, kSide);
  const i64 n = static_cast<i64>(locs.size());
  const geo::KernelCovGenerator cov(
      locs, std::make_shared<stats::ExponentialKernel>(1.0, kRange), kNugget);
  const auto corr = [&](i64 i, i64 j) {
    if (i == j) return 1.0;
    const double d = std::hypot(locs[static_cast<std::size_t>(i)].x - locs[static_cast<std::size_t>(j)].x,
                                locs[static_cast<std::size_t>(i)].y - locs[static_cast<std::size_t>(j)].y);
    return perfbench::matern(d, 1.0, kRange, 0.5) / (1.0 + kNugget);
  };
  std::vector<double> mean(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    const double dx = locs[static_cast<std::size_t>(i)].x - 0.4;
    const double dy = locs[static_cast<std::size_t>(i)].y - 0.6;
    mean[static_cast<std::size_t>(i)] = 3.5 * std::exp(-(dx * dx + dy * dy) / 0.05) - 0.5;
  }
  const double sd = std::sqrt(1.0 + kNugget);
  const auto limits = [&](double u) {
    std::vector<double> z(static_cast<std::size_t>(n));
    for (i64 i = 0; i < n; ++i) z[static_cast<std::size_t>(i)] = (u - mean[static_cast<std::size_t>(i)]) / sd;
    return z;
  };

  rt::Runtime rt(2);
  core::CrdOptions opts;
  opts.tile = 48;
  opts.pmvn.samples_per_shift = 1000;
  opts.pmvn.shifts = 10;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  const std::vector<core::CrdQuery> queries = {{0.0, kAlpha, core::CrdDirection::kAbove, {}},
                                               {0.5, kAlpha, core::CrdDirection::kAbove, {}}};
  const std::vector<core::CrdResult> res =
      core::detect_confidence_regions(rt, cov, mean, opts, queries);
  RegionOutput good{res[0].marginal, res[0].order, res[0].prefix_prob,
                    res[0].confidence, res[0].region, res[0].region_size};
  RegionOutput good_hi{res[1].marginal, res[1].order, res[1].prefix_prob,
                       res[1].confidence, res[1].region, res[1].region_size};
  const std::vector<double> z = limits(0.0);
  const double err = perfbench::mc_err3(1.0 - kAlpha, opts.pmvn.total_samples());
  std::printf("detected region: %lld of %lld locations\n",
              static_cast<long long>(good.region_size), static_cast<long long>(n));
  if (good.region_size < 3) {
    std::printf("FAIL  the test field should give a region of a few locations\n");
    return 1;
  }

  // ---- genuine outputs pass
  expect(true, perfbench::check_region_properties(good, z, kAlpha), "genuine output: properties");
  expect(true, perfbench::check_nested({&good, &good_hi}), "genuine ladder: nested");
  expect(true, perfbench::check_region_mc(good, z, kAlpha, err, corr, 7, 2),
         "genuine output: Monte Carlo region test");

  // ---- corrupted outputs fail
  {
    RegionOutput r = good;  // region grown by one location
    r.region[static_cast<std::size_t>(r.order[static_cast<std::size_t>(r.region_size)])] = 1;
    ++r.region_size;
    expect(false, perfbench::check_region_properties(r, z, kAlpha), "region grown by one");
  }
  {
    RegionOutput r = good;  // prefix curve pushed up, consistently
    for (double& p : r.prefix_prob) p = std::min(1.0, p + 0.04);
    refinalize(r, kAlpha);
    expect(true, perfbench::check_region_properties(r, z, kAlpha),
           "prefix pushed up: still self-consistent");
    expect(false, perfbench::check_region_mc(r, z, kAlpha, err, corr, 7, 2),
           "prefix pushed up: Monte Carlo rejects the grown region");
  }
  {
    RegionOutput r = good;  // prefix curve pushed down, consistently
    for (double& p : r.prefix_prob) p = std::max(0.0, p - 0.04);
    refinalize(r, kAlpha);
    expect(false, perfbench::check_region_mc(r, z, kAlpha, err, corr, 7, 2),
           "prefix pushed down: Monte Carlo rejects the shrunk region");
  }
  {
    RegionOutput r = good;
    r.marginal[5] += 1e-9;
    expect(false, perfbench::check_region_properties(r, z, kAlpha), "marginal off by 1e-9");
  }
  {
    RegionOutput r = good;
    std::swap(r.order[0], r.order[1]);
    if (r.marginal[static_cast<std::size_t>(r.order[0])] ==
        r.marginal[static_cast<std::size_t>(r.order[1])])
      std::swap(r.order[0], r.order[static_cast<std::size_t>(n - 1)]);
    expect(false, perfbench::check_region_properties(r, z, kAlpha), "ordering out of order");
  }
  {
    RegionOutput r = good;
    r.prefix_prob[3] = r.prefix_prob[2] + 1e-3;
    expect(false, perfbench::check_region_properties(r, z, kAlpha), "prefix curve increases");
  }
  {
    RegionOutput r = good;
    r.confidence[static_cast<std::size_t>(r.order[0])] -= 1e-3;
    expect(false, perfbench::check_region_properties(r, z, kAlpha),
           "confidence is not the envelope");
  }
  expect(false, perfbench::check_nested({&good_hi, &good}), "ladder regions not nested");

  // ---- a served prefix response, and corruptions of it
  serve::ServeOptions so;
  so.engine.samples_per_shift = 1000;
  so.engine.shifts = 10;
  so.engine.sampler = stats::SamplerKind::kRichtmyer;
  so.engine.adaptive = true;
  so.engine.tiered = true;
  serve::Server server(so, 2);
  serve::FieldSpec fs;
  fs.cov = std::make_shared<geo::KernelCovGenerator>(cov);
  fs.order = good.order;
  fs.factor = engine::FactorSpec{engine::FactorKind::kDense, 48, 0.0, -1};
  server.register_field("f", std::move(fs));
  const auto corr_ord = [&](i64 k, i64 l) {
    return corr(good.order[static_cast<std::size_t>(k)], good.order[static_cast<std::size_t>(l)]);
  };
  const auto ordered = [&](double u) {
    const std::vector<double> zu = limits(u);
    std::vector<double> a(static_cast<std::size_t>(n));
    for (i64 k = 0; k < n; ++k) a[static_cast<std::size_t>(k)] = zu[static_cast<std::size_t>(good.order[static_cast<std::size_t>(k)])];
    return a;
  };
  for (const double u : {0.0, 3.5}) {  // a straddling query, then one EP decides
    serve::Request req;
    req.field = "f";
    req.a = ordered(u);
    req.prefix = true;
    req.decision = 1.0 - kAlpha;
    const serve::Response r = server.evaluate(req);
    const bool ep = r.result.method == engine::EvalMethod::kEp;
    std::printf("served response at u = %.1f: method %s\n", u, ep ? "ep" : "qmc");
    const auto check = [&](const std::vector<double>& prefix, bool as_ep) {
      return perfbench::check_response_mc(prefix, req.a, kAlpha, r.result.error3sigma,
                                          r.result.samples_used, as_ep, corr_ord, 11, 2);
    };
    expect(true, check(r.result.prefix_prob, ep), "genuine response: Monte Carlo test");
    std::vector<double> up = r.result.prefix_prob;
    for (double& p : up) p = std::min(1.0, p + (ep ? 0.1 : 0.04));
    expect(false, check(up, ep), "response prefix pushed up: rejected");
    if (!ep) {
      std::vector<double> off = r.result.prefix_prob;
      for (double& p : off) p = std::max(0.0, p - 0.1);
      expect(false, check(off, true), "answer claimed as EP but off by more than the band");
    }
  }
  server.drain();

  std::printf("%s: %d failing case(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
