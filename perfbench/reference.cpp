#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::string fmt(const char* f, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

// P(Z > z) for a standard normal Z.
double normal_sf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return u * f;
}

// A correlation submatrix of a smooth kernel can sit at the edge of
// definiteness, hence the jitter ladder.
std::vector<double> cholesky(const std::vector<double>& a, int m) {
  for (double jitter : {0.0, 1e-12, 1e-10, 1e-8}) {
    std::vector<double> l(a);
    bool ok = true;
    for (int j = 0; j < m && ok; ++j) {
      double d = l[j * m + j] + jitter;
      for (int k = 0; k < j; ++k) d -= l[j * m + k] * l[j * m + k];
      if (!(d > 0.0)) {
        ok = false;
        break;
      }
      d = std::sqrt(d);
      l[j * m + j] = d;
      for (int i = j + 1; i < m; ++i) {
        double s = l[i * m + j];
        for (int k = 0; k < j; ++k) s -= l[i * m + k] * l[j * m + k];
        l[i * m + j] = s / d;
      }
    }
    if (ok) {
      for (int i = 0; i < m; ++i)
        for (int j = i + 1; j < m; ++j) l[i * m + j] = 0.0;
      return l;
    }
  }
  throw std::runtime_error("reference: correlation submatrix is not positive definite");
}

double matern(double d, double sigma2, double range, double nu) {
  if (d == 0.0) return sigma2;
  const double z = d / range;
  if (nu == 0.5) return sigma2 * std::exp(-z);
  if (z > 700.0) return 0.0;
  return sigma2 * std::pow(2.0, 1.0 - nu) / std::tgamma(nu) * std::pow(z, nu) *
         std::cyl_bessel_k(nu, z);
}

double mc_err3(double p, std::int64_t samples) {
  if (samples <= 0) return 1.0;
  return 3.0 * std::sqrt(std::max(p * (1.0 - p), 0.0) / static_cast<double>(samples));
}

std::string check_region_properties(const RegionOutput& out, const std::vector<double>& z,
                                    double alpha) {
  const std::size_t n = z.size();
  if (out.marginal.size() != n || out.order.size() != n || out.prefix_prob.size() != n ||
      out.confidence.size() != n || out.region.size() != n)
    return "result vectors do not have one entry per location";
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = normal_sf(z[i]);
    if (!(std::fabs(out.marginal[i] - ref) <= 1e-12))
      return fmt("marginal %.0f is %.17g, erfc reference %.17g", double(i), out.marginal[i], ref);
  }
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t o = out.order[i];
    if (o < 0 || static_cast<std::size_t>(o) >= n || seen[static_cast<std::size_t>(o)])
      return "order is not a permutation of the locations";
    seen[static_cast<std::size_t>(o)] = 1;
    if (i > 0 && out.marginal[static_cast<std::size_t>(out.order[i - 1])] <
                     out.marginal[static_cast<std::size_t>(o)])
      return fmt("order is not by descending marginal at position %.0f", double(i), 0, 0);
  }
  double running = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = out.prefix_prob[i];
    if (!(p >= 0.0 && p <= 1.0)) return fmt("prefix_prob[%.0f] = %g outside [0,1]", double(i), p, 0);
    if (i > 0 && p > out.prefix_prob[i - 1])
      return fmt("prefix_prob increases at row %.0f: %.17g > %.17g", double(i), p,
                 out.prefix_prob[i - 1]);
    running = std::min(running, p);
    if (out.confidence[static_cast<std::size_t>(out.order[i])] != running)
      return fmt("confidence at ordering row %.0f is %.17g, envelope %.17g", double(i),
                 out.confidence[static_cast<std::size_t>(out.order[i])], running);
  }
  const double level = 1.0 - alpha;
  std::int64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool in = out.confidence[i] >= level;
    if (in != (out.region[i] != 0))
      return fmt("region[%.0f] = %.0f but confidence %.17g", double(i), double(out.region[i]),
                 out.confidence[i]);
    count += in ? 1 : 0;
  }
  if (count != out.region_size)
    return fmt("region_size %.0f but %.0f locations in the region", double(out.region_size),
               double(count), 0);
  return {};
}

std::string check_nested(const std::vector<const RegionOutput*>& ladder) {
  for (std::size_t j = 1; j < ladder.size(); ++j) {
    const RegionOutput& lo = *ladder[j - 1];
    const RegionOutput& hi = *ladder[j];
    if (lo.region.size() != hi.region.size()) return "ladder regions differ in length";
    for (std::size_t i = 0; i < lo.region.size(); ++i)
      if (hi.region[i] && !lo.region[i])
        return fmt("region at ladder step %.0f is not inside step %.0f (location %.0f)",
                   double(j), double(j - 1), double(i));
  }
  return {};
}

namespace {

// Standard deviations the MC reference is allowed to be off by, on top of
// the estimator's own error. Four, not three: a few dozen benchmark runs
// make thousands of these one-sided checks.
constexpr double kRefSigmas = 4.0;

// Plain Monte Carlo estimate of the joint exceedance P(Z_i > c_i, i < m)
// for Z ~ N(0, corr), at two prefix lengths at once.
struct McPair {
  double p_lo = 1.0;   // P over the first m_lo coordinates (1 when m_lo = 0)
  double p_hi = 1.0;   // P over the first m_hi coordinates
  double sd_lo = 0.0;  // standard error of p_lo
  double sd_hi = 0.0;
};

// Reference sample count for an m-dimensional check: as many samples as a
// fixed work budget allows, between 20k and 200k.
std::int64_t mc_samples_for(int m) {
  const double budget = 8e9;  // multiply-adds: Z = L eps costs m^2/2 each
  const double per = 0.5 * static_cast<double>(m) * static_cast<double>(m) + 1.0;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(budget / per), 20000,
                                  200000);
}

// `corr` is m_hi x m_hi, row-major; `c` has m_hi limits; m_lo <= m_hi.
// Deterministic for a given (seed, samples, threads).
McPair mc_prefix_pair(const std::vector<double>& corr, const std::vector<double>& c,
                      int m_lo, std::int64_t samples, std::uint64_t seed, int threads) {
  const int m = static_cast<int>(c.size());
  McPair out;
  if (m == 0 || samples <= 0) return out;
  const std::vector<double> l = cholesky(corr, m);
  threads = std::max(1, threads);
  std::vector<std::int64_t> hits_lo(static_cast<std::size_t>(threads), 0);
  std::vector<std::int64_t> hits_hi(static_cast<std::size_t>(threads), 0);

  const auto worker = [&](int t) {
    constexpr int kBlock = 64;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t) + 1);
    std::int64_t todo = samples / threads + (t < samples % threads ? 1 : 0);
    std::vector<double> eps(static_cast<std::size_t>(m) * kBlock);
    std::vector<double> z(kBlock);
    std::vector<char> alive(kBlock);
    std::int64_t lo = 0, hi = 0;
    while (todo > 0) {
      const int b = static_cast<int>(std::min<std::int64_t>(todo, kBlock));
      todo -= b;
      for (int j = 0; j < m; ++j)
        for (int s = 0; s < b; ++s) eps[static_cast<std::size_t>(j) * kBlock + s] = rng.normal();
      std::fill(alive.begin(), alive.end(), 1);
      int n_alive = b;
      for (int i = 0; i < m && n_alive > 0; ++i) {
        if (i == m_lo)
          for (int s = 0; s < b; ++s) lo += alive[s];
        std::fill(z.begin(), z.end(), 0.0);
        const double* li = &l[static_cast<std::size_t>(i) * m];
        for (int j = 0; j <= i; ++j) {
          const double lij = li[j];
          const double* ej = &eps[static_cast<std::size_t>(j) * kBlock];
          for (int s = 0; s < kBlock; ++s) z[s] += lij * ej[s];
        }
        for (int s = 0; s < b; ++s)
          if (alive[s] && !(z[s] > c[i])) {
            alive[s] = 0;
            --n_alive;
          }
      }
      if (m_lo == m)
        for (int s = 0; s < b; ++s) lo += alive[s];
      for (int s = 0; s < b; ++s) hi += alive[s];
    }
    hits_lo[static_cast<std::size_t>(t)] = lo;
    hits_hi[static_cast<std::size_t>(t)] = hi;
  };
  std::vector<std::jthread> pool;  // also joins if the caller's share throws
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();

  std::int64_t lo = 0, hi = 0;
  for (int t = 0; t < threads; ++t) {
    lo += hits_lo[static_cast<std::size_t>(t)];
    hi += hits_hi[static_cast<std::size_t>(t)];
  }
  const double ns = static_cast<double>(samples);
  out.p_lo = m_lo == 0 ? 1.0 : static_cast<double>(lo) / ns;
  out.p_hi = static_cast<double>(hi) / ns;
  out.sd_lo = std::sqrt(out.p_lo * (1.0 - out.p_lo) / ns);
  out.sd_hi = std::sqrt(out.p_hi * (1.0 - out.p_hi) / ns);
  return out;
}

// The shared MC test of a top-k prefix in ordering space: `rows` maps
// ordering positions to the indices `corr` and `lim` understand.
struct PrefixProblem {
  std::vector<double> corr;
  std::vector<double> c;
  int m_lo = 0;
};

PrefixProblem prefix_problem(std::int64_t k, std::int64_t n,
                             const std::function<std::int64_t(std::int64_t)>& row,
                             const std::vector<double>& lim,
                             const std::function<double(std::int64_t, std::int64_t)>& corr) {
  PrefixProblem p;
  const int m = static_cast<int>(std::min(k + 1, n));
  p.m_lo = static_cast<int>(k);
  p.corr.assign(static_cast<std::size_t>(m) * m, 0.0);
  p.c.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const std::int64_t ri = row(i);
    p.c[static_cast<std::size_t>(i)] = lim[static_cast<std::size_t>(ri)];
    for (int j = 0; j <= i; ++j) {
      const double v = i == j ? 1.0 : corr(ri, row(j));
      p.corr[static_cast<std::size_t>(i) * m + j] = v;
      p.corr[static_cast<std::size_t>(j) * m + i] = v;
    }
  }
  return p;
}

std::string region_test(const McPair& mc, std::int64_t k, std::int64_t n, double level,
                        double est_err) {
  if (k > 0) {
    const double tol = est_err + kRefSigmas * mc.sd_lo;
    if (mc.p_lo < level - tol)
      return fmt("region P = %.5f by Monte Carlo, below the level %.4f by more than %.5f",
                 mc.p_lo, level, tol);
  }
  if (k < n) {
    const double tol = est_err + kRefSigmas * mc.sd_hi;
    if (mc.p_hi > level + tol)
      return fmt("region plus the next location has P = %.5f by Monte Carlo, above the "
                 "level %.4f by more than %.5f",
                 mc.p_hi, level, tol);
  }
  return {};
}

}  // namespace

std::string check_region_mc(const RegionOutput& out, const std::vector<double>& z, double alpha,
                            double est_err,
                            const std::function<double(std::int64_t, std::int64_t)>& corr,
                            std::uint64_t seed, int threads) {
  const std::int64_t n = static_cast<std::int64_t>(z.size());
  const std::int64_t k = out.region_size;
  if (k < 0 || k > n || static_cast<std::int64_t>(out.order.size()) != n)
    return "region_size outside [0, n]";
  for (std::int64_t i = 0; i < k; ++i)
    if (!out.region[static_cast<std::size_t>(out.order[static_cast<std::size_t>(i)])])
      return "region is not the top prefix of the ordering";
  const PrefixProblem p = prefix_problem(
      k, n, [&](std::int64_t i) { return out.order[static_cast<std::size_t>(i)]; }, z, corr);
  const McPair mc = mc_prefix_pair(p.corr, p.c, p.m_lo,
                                   mc_samples_for(static_cast<int>(p.c.size())), seed, threads);
  return region_test(mc, k, n, 1.0 - alpha, est_err);
}

std::string check_response_mc(const std::vector<double>& prefix_prob,
                              const std::vector<double>& a, double alpha, double error3sigma,
                              std::int64_t samples_used, bool ep,
                              const std::function<double(std::int64_t, std::int64_t)>& corr,
                              std::uint64_t seed, int threads) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if (static_cast<std::int64_t>(prefix_prob.size()) != n)
    return "response prefix_prob does not have one row per location";
  const double level = 1.0 - alpha;
  std::int64_t k = 0;
  while (k < n && prefix_prob[static_cast<std::size_t>(k)] >= level) ++k;
  const PrefixProblem p =
      prefix_problem(k, n, [](std::int64_t i) { return i; }, a, corr);
  const McPair mc = mc_prefix_pair(p.corr, p.c, p.m_lo,
                                   mc_samples_for(static_cast<int>(p.c.size())), seed, threads);
  if (!ep) return region_test(mc, k, n, level, error3sigma + mc_err3(level, samples_used));
  if (k > 0) {
    const double got = prefix_prob[static_cast<std::size_t>(k - 1)];
    if (!(std::fabs(got - mc.p_lo) <= error3sigma + kRefSigmas * mc.sd_lo))
      return fmt("EP row %.0f = %.5f, Monte Carlo %.5f", double(k - 1), got, mc.p_lo);
  }
  if (k < n) {
    const double got = prefix_prob[static_cast<std::size_t>(k)];
    if (!(std::fabs(got - mc.p_hi) <= error3sigma + kRefSigmas * mc.sd_hi))
      return fmt("EP row %.0f = %.5f, Monte Carlo %.5f", double(k), got, mc.p_hi);
  }
  return region_test(mc, k, n, level, error3sigma);
}

}  // namespace perfbench
