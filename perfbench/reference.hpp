// Independent correctness references for the end-to-end benchmark.
//
// Nothing here uses parmvn: marginals come from the C library's erfc, joint
// probabilities from plain Monte Carlo with this file's own Cholesky and
// random number generator (the paper's Fig. 6 validation, done apart from
// the code under test). Each check returns an empty string when the output
// passes and a one-line reason when it does not, so the benchmark can report
// the first failure and the self-test can assert that corrupted outputs are
// rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64, with a polar-method normal.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  double uniform();  // in (0, 1)
  double normal();

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Lower Cholesky factor of an m x m row-major SPD matrix (row-major, zero
/// upper triangle); retries with a tiny diagonal jitter at the edge of
/// definiteness and throws if that fails too.
std::vector<double> cholesky(const std::vector<double>& a, int m);

/// Matérn correlation sigma2 * 2^(1-nu)/Gamma(nu) (d/range)^nu K_nu(d/range).
double matern(double d, double sigma2, double range, double nu);

/// The confidence-region part of a detection result, in the program's
/// conventions: marginal/confidence/region in original indexing, order and
/// prefix_prob in ordering space.
struct RegionOutput {
  std::vector<double> marginal;
  std::vector<std::int64_t> order;
  std::vector<double> prefix_prob;
  std::vector<double> confidence;
  std::vector<std::uint8_t> region;
  std::int64_t region_size = 0;
};

/// Properties every detection result must have: marginals equal to the
/// erfc reference (`z` are the standardised limits, event Z_i > z_i),
/// the ordering sorts them descending, prefix_prob lies in [0,1] and does
/// not increase, confidence is its running-min envelope, and region is
/// exactly {confidence >= 1 - alpha}.
std::string check_region_properties(const RegionOutput& out,
                                    const std::vector<double>& z, double alpha);

/// Regions of one ordering must shrink as the threshold rises: `ladder` is
/// ordered by increasing threshold.
std::string check_nested(const std::vector<const RegionOutput*>& ladder);

/// Monte Carlo check of a detected region (the top-k prefix of `order`,
/// k = region_size) against the level 1 - alpha:
///   P(region) >= 1 - alpha - tol  and  P(region + next) <= 1 - alpha + tol,
/// with tol = est_err + 4 sd_ref (four reference sigmas, not three: a few
/// dozen benchmark runs make thousands of these one-sided checks). `corr(i, j)` is the
/// correlation between original locations i and j; `z` the limits.
std::string check_region_mc(const RegionOutput& out, const std::vector<double>& z,
                            double alpha, double est_err,
                            const std::function<double(std::int64_t, std::int64_t)>& corr,
                            std::uint64_t seed, int threads);

/// MC check of one served prefix response in factor order: `a` holds the
/// limits (event Z_k > a_k), `corr(k, l)` the correlation in factor order.
/// The decision row k is the number of leading prefix rows >= 1 - alpha.
/// QMC answers must satisfy the region test of check_region_mc with tol =
/// error3sigma + mc_err3(1 - alpha, samples_used) + 4 sd_ref
/// (error3sigma is the full-dimension error; the second term stands in for
/// the unreported error of the decision rows). EP answers (`ep` true) must
/// lie within error3sigma, the EP band, of the reference at rows k-1 and k.
std::string check_response_mc(const std::vector<double>& prefix_prob,
                              const std::vector<double>& a, double alpha,
                              double error3sigma, std::int64_t samples_used,
                              bool ep,
                              const std::function<double(std::int64_t, std::int64_t)>& corr,
                              std::uint64_t seed, int threads);

/// The 3-sigma error a plain Monte Carlo estimate of probability p would
/// have with `samples` samples: the error stand-in for outputs that do not
/// report their own (CrdResult carries no error3sigma).
double mc_err3(double p, std::int64_t samples);

}  // namespace perfbench
