// Synthetic trace generators standing in for the paper's internal production
// traces.
//
// The paper characterizes two traces:
//   * the "internal trace" of Fig. 4: roughly 2K input tokens, 200 output;
//   * the code-generation-service trace of Fig. 6 (longer, more varied
//     prompts with heavy prefix sharing from repo/system-prompt context).
// We generate arrivals as a Poisson process at a target RPS and lengths from
// log-normal distributions matching those summary statistics. Prompts can
// share prefixes drawn from a Zipf-popular pool so locality-aware scheduling
// has real structure to exploit.
#ifndef DEEPSERVE_WORKLOAD_TRACEGEN_H_
#define DEEPSERVE_WORKLOAD_TRACEGEN_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "workload/request.h"

namespace deepserve::workload {

struct LengthDistribution {
  // Log-normal around `mean` with coefficient-of-variation `cv`; clamped to
  // [min, max]. cv = 0 degenerates to the constant `mean`.
  double mean = 2048;
  double cv = 0.3;
  int64_t min = 16;
  int64_t max = 32768;

  int64_t Sample(Rng& rng) const;
};

struct TraceConfig {
  double rps = 1.0;                // Poisson arrival rate
  double duration_s = 60.0;        // generation horizon
  LengthDistribution prefill{2048, 0.3, 64, 16384};
  LengthDistribution decode{200, 0.4, 8, 4096};

  // Prefix sharing: each request starts with one of `prefix_pool_size` shared
  // prefixes (Zipf-skewed popularity) covering `shared_fraction` of its
  // prompt. 0 pool size disables sharing.
  int prefix_pool_size = 0;
  double shared_fraction = 0.5;
  double prefix_zipf_s = 1.1;

  uint64_t seed = 42;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(TraceConfig config);

  // Generates the full trace: requests with Poisson arrival timestamps,
  // sampled lengths, and synthesized prompt token ids.
  std::vector<RequestSpec> Generate();

  // Non-homogeneous Poisson trace for autoscaler studies: the arrival rate
  // follows a compressed diurnal curve
  //   rate(t) = base_rps + (peak_rps - base_rps) * ((1 - cos(2*pi*t/period_s)) / 2)^sharpness
  // over the config's duration_s, generated by thinning a peak_rps process so
  // a single seed fixes the whole trace (config.rps is ignored). sharpness 1
  // is a plain sinusoid; larger values narrow the peaks and widen the quiet
  // troughs (spiky diurnal traffic). Lengths and prompts draw from the
  // config's distributions exactly as in Generate().
  std::vector<RequestSpec> GenerateBursty(double base_rps, double peak_rps, double period_s,
                                          double sharpness = 1.0);

  // Generates `count` requests all arriving at time 0 with fixed lengths —
  // the controlled batches used by the PD heatmap study (Fig. 5).
  static std::vector<RequestSpec> FixedBatch(int count, int64_t prefill_len, int64_t decode_len,
                                             uint64_t seed = 7);

  // The Fig. 4 "internal trace" (≈2K in / 200 out) at the given RPS.
  static TraceConfig InternalTrace(double rps, double duration_s, uint64_t seed = 42);
  // The Fig. 6 code-generation trace: longer prompts (mean 3K, high variance),
  // shorter decodes, strong prefix sharing.
  static TraceConfig CodeGenTrace(double rps, double duration_s, uint64_t seed = 42);

 private:
  // GenerateBursty's rate curve (see there).
  struct Envelope {
    double base_rps;
    double peak_rps;
    double period_s;
    double sharpness;
  };
  // The arrival loop of Generate (envelope == nullptr: Poisson at
  // config_.rps) and GenerateBursty (Poisson at peak_rps, thinned down to
  // the envelope by a fourth RNG stream forked after the other three).
  std::vector<RequestSpec> GenerateArrivals(const Envelope* envelope);
  std::vector<TokenId> MakePrompt(int64_t len, Rng& rng);

  TraceConfig config_;
  Rng rng_;
  // Shared prefix pool, lazily built: pool[i] is a token sequence.
  std::vector<std::vector<TokenId>> prefix_pool_;
};

}  // namespace deepserve::workload

#endif  // DEEPSERVE_WORKLOAD_TRACEGEN_H_
