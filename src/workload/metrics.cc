#include "workload/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::workload {

void MetricsCollector::Record(const RequestRecord& record) {
  DS_CHECK_GE(record.first_token, record.arrival);
  DS_CHECK_GE(record.completion, record.first_token);
  ttft_ms_.Add(record.ttft_ms());
  if (record.decode_len > 1) {
    tpot_ms_.Add(record.tpot_ms());
  }
  jct_ms_.Add(record.jct_ms());
  total_output_tokens_ += record.decode_len;
  first_arrival_ = std::min(first_arrival_, record.arrival);
  last_completion_ = std::max(last_completion_, record.completion);
  records_.push_back(record);
}

double MetricsCollector::DecodeThroughput() const {
  if (records_.empty() || last_completion_ <= first_arrival_) {
    return 0.0;
  }
  return static_cast<double>(total_output_tokens_) /
         NsToS(last_completion_ - first_arrival_);
}

double MetricsCollector::RequestThroughput() const {
  if (records_.empty() || last_completion_ <= first_arrival_) {
    return 0.0;
  }
  return static_cast<double>(records_.size()) / NsToS(last_completion_ - first_arrival_);
}

double MetricsCollector::SloAttainment(double ttft_ms_target, double tpot_ms_target) const {
  if (records_.empty()) {
    return 0.0;
  }
  size_t met = 0;
  for (const auto& record : records_) {
    bool ok = true;
    if (ttft_ms_target > 0.0 && record.ttft_ms() > ttft_ms_target) {
      ok = false;
    }
    if (tpot_ms_target > 0.0 && record.decode_len > 1 && record.tpot_ms() > tpot_ms_target) {
      ok = false;
    }
    if (ok) {
      ++met;
    }
  }
  return static_cast<double>(met) / static_cast<double>(records_.size());
}

void MetricsCollector::WriteCsv(std::ostream& out) const {
  out << "request_id,arrival_ms,first_token_ms,completion_ms,prefill_len,decode_len,"
         "ttft_ms,tpot_ms,jct_ms\n";
  for (const auto& r : records_) {
    out << r.id << ',' << NsToMs(r.arrival) << ',' << NsToMs(r.first_token)
        << ',' << NsToMs(r.completion) << ',' << r.prefill_len << ',' << r.decode_len
        << ',' << r.ttft_ms() << ',' << r.tpot_ms() << ',' << r.jct_ms() << '\n';
  }
}

Status MetricsCollector::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return UnavailableError("cannot open " + path + " for writing");
  }
  WriteCsv(out);
  return out.good() ? Status::Ok() : InternalError("short write to " + path);
}

std::string MetricsCollector::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu ttft p50/p99=%.1f/%.1f ms tpot p50/p99=%.2f/%.2f ms "
                "jct p50=%.1f ms decode-tput=%.1f tok/s",
                completed(), ttft_ms_.p50(), ttft_ms_.p99(), tpot_ms_.p50(), tpot_ms_.p99(),
                jct_ms_.p50(), DecodeThroughput());
  return buf;
}

}  // namespace deepserve::workload
