// Every option struct the benchmark hands the stack, built field by field so
// no environment variable or changed library default slips into a run
// unannounced. Config lines print the values actually in force.

#ifndef HINFSBENCH_SRC_STACK_H_
#define HINFSBENCH_SRC_STACK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/fs/pmfs/pmfs_fs.h"
#include "src/hinfs/hinfs_options.h"
#include "src/nvmm/nvmm_device.h"

namespace hinfsbench {

// Paper §5.1 emulator: 200 ns extra write latency per flushed line, spun on
// the CPU, 1 GB/s write bandwidth, clflush. QoS and wear accounting are off.
inline hinfs::NvmmConfig DeviceConfig(size_t bytes) {
  hinfs::NvmmConfig c;
  c.size_bytes = bytes;
  c.latency_mode = hinfs::LatencyMode::kSpin;
  c.write_latency_ns = 200;
  c.write_bandwidth_bytes_per_sec = 1ull << 30;
  c.flush_instruction = hinfs::FlushInstruction::kClflush;
  c.track_persistence = false;
  c.qos = hinfs::qos::QosConfig{};
  c.qos.tenants = 0;
  c.wear = hinfs::wear::WearConfig{};
  c.wear.region_bytes = 0;
  return c;
}

// HiNFS as the paper configures it (LRW, CLFW, the Benefit Model on, 5 s
// writeback period and eager decay), with the write buffer sized per workload.
inline hinfs::HinfsOptions FsConfig(size_t buffer_bytes) {
  hinfs::HinfsOptions o;
  o.buffer_bytes = buffer_bytes;
  o.low_watermark = 0.05;
  o.high_watermark = 0.20;
  o.writeback_period_ms = 5000;
  o.staleness_ms = 30000;
  o.eager_decay_ms = 5000;
  o.dram_write_ns_per_line = 15;
  o.clfw = true;
  o.eager_checker = true;
  o.replacement = hinfs::HinfsOptions::Replacement::kLrw;
  o.buffer_shards = 0;  // auto: next power of two >= hardware threads
  o.writeback_threads = 1;
  o.steal_frames = true;
  o.wal.regions = 0;  // auto: min(hardware threads, 8)
  o.wal.total_bytes = 16ull << 20;
  o.wal.commit_format = hinfs::WalCommitFormat::kChecksum;
  o.wal.direct_write_bytes = 4096;
  o.wal.checkpoint_ms = 200;
  return o;
}

inline hinfs::PmfsOptions FormatConfig(uint64_t device_bytes) {
  hinfs::PmfsOptions o;
  o.max_inodes = 4096;
  o.journal_bytes = 4ull << 20;
  o.device_bytes = device_bytes;  // 0 = whole device
  return o;
}

inline std::vector<std::string> ConfigLines(const hinfs::NvmmConfig& d,
                                            const hinfs::HinfsOptions& h, size_t shards) {
  auto s = [](auto v) { return std::to_string(v); };
  return {
      "nvmm.size_bytes " + s(d.size_bytes),
      "nvmm.latency_mode spin",
      "nvmm.write_latency_ns " + s(d.write_latency_ns),
      "nvmm.write_bandwidth_bytes_per_sec " + s(d.write_bandwidth_bytes_per_sec),
      "nvmm.flush_instruction clflush",
      "nvmm.qos off",
      "nvmm.wear off",
      "hinfs.buffer_bytes " + s(h.buffer_bytes),
      "hinfs.buffer_shards " + s(shards),
      "hinfs.watermarks " + s(h.low_watermark) + " " + s(h.high_watermark),
      "hinfs.writeback_period_ms " + s(h.writeback_period_ms),
      "hinfs.writeback_threads " + s(h.writeback_threads),
      "hinfs.replacement lrw",
      "hinfs.clfw " + s(h.clfw),
      "hinfs.eager_checker " + s(h.eager_checker),
      "hinfs.steal_frames " + s(h.steal_frames),
  };
}

}  // namespace hinfsbench

#endif  // HINFSBENCH_SRC_STACK_H_
