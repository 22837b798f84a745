#include "model.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/rng.h"

namespace hinfsbench {

Percentile TakePercentile(std::vector<uint64_t>& samples_ns, double q) {
  Percentile p;
  p.count = samples_ns.size();
  if (p.count == 0) {
    return p;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.count)));
  rank = std::clamp<size_t>(rank, 1, p.count);
  auto nth = samples_ns.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples_ns.begin(), nth, samples_ns.end());
  p.value_us = static_cast<double>(*nth) / 1000.0;
  p.beyond = p.count - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void FillPattern(uint64_t seed, uint8_t* dst, size_t len) {
  hinfs::Rng rng(seed);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(dst + i, &v, 8);
  }
  if (i < len) {
    const uint64_t v = rng.Next();
    std::memcpy(dst + i, &v, len - i);
  }
}

void FileModel::Write(uint64_t offset, const uint8_t* src, size_t len) {
  if (offset + len > bytes_.size()) {
    bytes_.resize(offset + len, 0);  // a write past EOF leaves a zero-filled hole
  }
  std::memcpy(bytes_.data() + offset, src, len);
}

bool FileModel::Matches(uint64_t offset, const uint8_t* got, size_t len) const {
  if (offset + len > bytes_.size()) {
    return false;
  }
  return std::memcmp(bytes_.data() + offset, got, len) == 0;
}

std::string FileModel::Describe(uint64_t offset, const uint8_t* got, size_t len) const {
  const size_t have = offset < bytes_.size() ? bytes_.size() - offset : 0;
  std::string out = "read " + std::to_string(len) + " bytes at " + std::to_string(offset) +
                    ", model holds " + std::to_string(have);
  const size_t n = std::min(len, have);
  size_t first = n, last = 0, zeros = 0;
  for (size_t i = 0; i < n; i++) {
    if (got[i] != bytes_[offset + i]) {
      first = std::min(first, i);
      last = i;
      zeros += got[i] == 0 ? 1 : 0;
    }
  }
  if (first < n) {
    out += "; bytes [" + std::to_string(offset + first) + ", " + std::to_string(offset + last + 1) +
           ") differ, " + std::to_string(zeros) + " of the differing bytes read as zero";
  }
  return out;
}

double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) {
      json += ", ";
    }
    json += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace hinfsbench
