// Measurement and checking pieces shared by every workload: raw-sample
// percentiles, the per-thread content model reads are verified against, the
// failed/attempted tally, process CPU and RSS probes, and the result printer.

#ifndef HINFSBENCH_SRC_MODEL_H_
#define HINFSBENCH_SRC_MODEL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace hinfsbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Latency samples are stored as 32-bit nanoseconds (up to 4.29 s).
inline uint32_t ClampNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

// A percentile taken from raw samples (nanoseconds) by nearest rank: the
// smallest sample with at least q of all samples at or below it. `beyond` is
// the number of samples strictly after it in sorted order — a p99 is only
// meaningful with at least ten of those.
struct Percentile {
  double value_us = 0;
  size_t count = 0;
  size_t beyond = 0;
};
// Reorders `samples_ns` (nth_element). q in (0, 1].
Percentile TakePercentile(std::vector<uint64_t>& samples_ns, double q);

// Median of a list of values (mean of the two middle ones for even sizes).
double Median(std::vector<double> values);

// Deterministic payload bytes for seed `seed`.
void FillPattern(uint64_t seed, uint8_t* dst, size_t len);

// What one file should contain: every byte the benchmark wrote, in the order
// it issued the writes. Reads are checked against it, so the check does not
// depend on when (or whether) the file system wrote data back.
class FileModel {
 public:
  void Write(uint64_t offset, const uint8_t* src, size_t len);
  void Clear() { bytes_.clear(); }
  size_t size() const { return bytes_.size(); }
  const uint8_t* data() const { return bytes_.data(); }
  // True when `got` equals the model's bytes [offset, offset + len); a read
  // past the model's end must come back short, so `len` must fit.
  bool Matches(uint64_t offset, const uint8_t* got, size_t len) const;
  // Says where `got` (a read of `len` bytes at `offset`) departs from the
  // model, for the error report.
  std::string Describe(uint64_t offset, const uint8_t* got, size_t len) const;

 private:
  std::vector<uint8_t> bytes_;
};

// Counts flowops (or requests): any non-OK Status from any call in one op
// makes that op failed. The workloads keep files private to each thread, so
// no race can make an error benign.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(const hinfs::Status& status) {
    attempted++;
    if (!status.ok()) {
      failed++;
    }
  }
  void Add(const OpTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

// Process CPU time (user + system, all threads) in microseconds.
double ProcessCpuUs();
// Peak resident set size of the process in MB.
double PeakRssMb();

// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Prints `metrics` one per line for people, then the machine-readable last
// line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace hinfsbench

#endif  // HINFSBENCH_SRC_MODEL_H_
