// Serving metrics: the quantities the paper reports.
//
//   TTFT  — time to first token (arrival -> first output token)
//   TPOT  — time per output token (first token -> completion, averaged)
//   JCT   — job completion time (arrival -> completion)
//   decode throughput — output tokens per second over the run
//   SLO attainment — fraction of requests with TTFT/TPOT under target
#ifndef DEEPSERVE_WORKLOAD_METRICS_H_
#define DEEPSERVE_WORKLOAD_METRICS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"

#include "common/stats.h"
#include "common/time_units.h"
#include "common/types.h"
#include "workload/request.h"

namespace deepserve::workload {

struct RequestRecord {
  RequestId id = 0;
  TimeNs arrival = 0;
  TimeNs first_token = 0;
  TimeNs completion = 0;
  int64_t prefill_len = 0;
  int64_t decode_len = 0;

  double ttft_ms() const { return NsToMs(first_token - arrival); }
  double jct_ms() const { return NsToMs(completion - arrival); }
  double tpot_ms() const {
    if (decode_len <= 1) {
      return 0.0;
    }
    return NsToMs(completion - first_token) / static_cast<double>(decode_len - 1);
  }
};

class MetricsCollector {
 public:
  void Record(const RequestRecord& record);

  size_t completed() const { return records_.size(); }
  const SampleStats& ttft_ms() const { return ttft_ms_; }
  const SampleStats& tpot_ms() const { return tpot_ms_; }
  const SampleStats& jct_ms() const { return jct_ms_; }
  const std::vector<RequestRecord>& records() const { return records_; }

  TimeNs last_completion() const { return last_completion_; }

  // Output tokens per second over [first arrival, last completion].
  double DecodeThroughput() const;
  // Completed requests per second over the same window.
  double RequestThroughput() const;
  // Fraction of requests meeting both SLO targets (<= 0 disables a target).
  double SloAttainment(double ttft_ms_target, double tpot_ms_target) const;

  // One-line summary for bench output.
  std::string Summary() const;

  // Per-request CSV (header + one row per record) for offline analysis.
  void WriteCsv(std::ostream& out) const;
  [[nodiscard]] Status WriteCsvFile(const std::string& path) const;

 private:
  SampleStats ttft_ms_;
  SampleStats tpot_ms_;
  SampleStats jct_ms_;
  int64_t total_output_tokens_ = 0;
  TimeNs first_arrival_ = kTimeNever;
  TimeNs last_completion_ = 0;
  std::vector<RequestRecord> records_;
};

}  // namespace deepserve::workload

#endif  // DEEPSERVE_WORKLOAD_METRICS_H_
