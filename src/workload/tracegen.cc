#include "workload/tracegen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::workload {

namespace {

// Synthetic prompt token ids are drawn uniformly from [256, kVocabSize).
constexpr int64_t kVocabSize = 128000;

}  // namespace

int64_t LengthDistribution::Sample(Rng& rng) const {
  if (cv <= 0.0) {
    return std::clamp(static_cast<int64_t>(mean), min, max);
  }
  // Log-normal with the requested mean and coefficient of variation:
  // sigma^2 = ln(1 + cv^2), mu = ln(mean) - sigma^2/2.
  double sigma2 = std::log(1.0 + cv * cv);
  double mu = std::log(mean) - sigma2 / 2.0;
  double v = rng.LogNormal(mu, std::sqrt(sigma2));
  return std::clamp(static_cast<int64_t>(std::llround(v)), min, max);
}

TraceGenerator::TraceGenerator(TraceConfig config)
    : config_(config), rng_(config.seed) {
  DS_CHECK_GT(config_.rps, 0.0);
  if (config_.prefix_pool_size > 0) {
    Rng pool_rng = rng_.Fork();
    prefix_pool_.resize(static_cast<size_t>(config_.prefix_pool_size));
    for (auto& prefix : prefix_pool_) {
      // Prefixes are as long as the longest shared span we may need.
      int64_t len = static_cast<int64_t>(config_.prefill.max);
      prefix.reserve(static_cast<size_t>(len));
      for (int64_t i = 0; i < len; ++i) {
        prefix.push_back(
            static_cast<TokenId>(pool_rng.UniformInt(256, kVocabSize - 1)));
      }
    }
  }
}

std::vector<TokenId> TraceGenerator::MakePrompt(int64_t len, Rng& rng) {
  std::vector<TokenId> prompt;
  prompt.reserve(static_cast<size_t>(len));
  int64_t shared = 0;
  if (!prefix_pool_.empty()) {
    shared = std::min<int64_t>(
        static_cast<int64_t>(config_.shared_fraction * static_cast<double>(len)),
        static_cast<int64_t>(prefix_pool_[0].size()));
    size_t which = static_cast<size_t>(
        rng.Zipf(static_cast<int64_t>(prefix_pool_.size()), config_.prefix_zipf_s));
    const auto& prefix = prefix_pool_[which];
    prompt.insert(prompt.end(), prefix.begin(), prefix.begin() + shared);
  }
  for (int64_t i = shared; i < len; ++i) {
    prompt.push_back(static_cast<TokenId>(rng.UniformInt(256, kVocabSize - 1)));
  }
  return prompt;
}

std::vector<RequestSpec> TraceGenerator::Generate() { return GenerateArrivals(nullptr); }

std::vector<RequestSpec> TraceGenerator::GenerateBursty(double base_rps, double peak_rps,
                                                        double period_s, double sharpness) {
  DS_CHECK_GT(peak_rps, 0.0);
  DS_CHECK(base_rps >= 0.0 && base_rps <= peak_rps);
  DS_CHECK_GT(period_s, 0.0);
  DS_CHECK_GT(sharpness, 0.0);
  const Envelope envelope{base_rps, peak_rps, period_s, sharpness};
  return GenerateArrivals(&envelope);
}

std::vector<RequestSpec> TraceGenerator::GenerateArrivals(const Envelope* envelope) {
  constexpr double kTwoPi = 6.283185307179586;
  const double poisson_rps = envelope != nullptr ? envelope->peak_rps : config_.rps;
  std::vector<RequestSpec> out;
  Rng arrivals = rng_.Fork();
  Rng lengths = rng_.Fork();
  Rng prompts = rng_.Fork();
  // Forked only for bursty traces, so Generate's streams stay as they were.
  Rng thinning = envelope != nullptr ? rng_.Fork() : Rng();
  double t = 0.0;
  RequestId next_id = 1;
  while (true) {
    t += arrivals.Exponential(poisson_rps);
    if (t >= config_.duration_s) {
      break;
    }
    if (envelope != nullptr) {
      const Envelope& e = *envelope;
      double rate = e.base_rps + (e.peak_rps - e.base_rps) *
                                     std::pow(0.5 * (1.0 - std::cos(kTwoPi * t / e.period_s)),
                                              e.sharpness);
      if (thinning.NextDouble() * e.peak_rps > rate) {
        continue;  // thinned out: instantaneous rate is below the envelope
      }
    }
    RequestSpec req;
    req.id = next_id++;
    req.arrival = SToNs(t);
    int64_t plen = config_.prefill.Sample(lengths);
    req.decode_len = config_.decode.Sample(lengths);
    req.prompt = MakePrompt(plen, prompts);
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<RequestSpec> TraceGenerator::FixedBatch(int count, int64_t prefill_len,
                                                    int64_t decode_len, uint64_t seed) {
  Rng rng(seed);
  std::vector<RequestSpec> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    RequestSpec req;
    req.id = static_cast<RequestId>(i + 1);
    req.arrival = 0;
    req.decode_len = decode_len;
    std::vector<TokenId> prompt;
    prompt.reserve(static_cast<size_t>(prefill_len));
    for (int64_t j = 0; j < prefill_len; ++j) {
      prompt.push_back(static_cast<TokenId>(rng.UniformInt(256, kVocabSize - 1)));
    }
    req.prompt = std::move(prompt);
    out.push_back(std::move(req));
  }
  return out;
}

TraceConfig TraceGenerator::InternalTrace(double rps, double duration_s, uint64_t seed) {
  TraceConfig config;
  config.rps = rps;
  config.duration_s = duration_s;
  config.prefill = LengthDistribution{2048, 0.25, 256, 8192};
  config.decode = LengthDistribution{200, 0.35, 16, 1024};
  config.prefix_pool_size = 32;
  config.shared_fraction = 0.25;
  config.seed = seed;
  return config;
}

TraceConfig TraceGenerator::CodeGenTrace(double rps, double duration_s, uint64_t seed) {
  TraceConfig config;
  config.rps = rps;
  config.duration_s = duration_s;
  config.prefill = LengthDistribution{3072, 0.6, 256, 16384};
  config.decode = LengthDistribution{256, 0.8, 16, 2048};
  config.prefix_pool_size = 64;
  config.shared_fraction = 0.5;
  config.prefix_zipf_s = 1.2;
  config.seed = seed;
  return config;
}

}  // namespace deepserve::workload
