// The benchmark's workload interface, and what main.cc measures through it.
//
// Each workload builds its stack from the public constructors, populates its
// files, and then runs rounds: a round is a fixed, pre-generated op count per
// client, closed loop. main.cc repeats rounds until the requested seconds
// have passed and measures the rounds the host's other tenants took the
// least CPU time from.

#ifndef HINFSBENCH_SRC_BENCH_H_
#define HINFSBENCH_SRC_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model.h"
#include "src/common/status.h"
#include "trace.h"

namespace hinfs {
class NvmmDevice;
class HinfsFs;
class WalFs;
namespace server {
class Server;
}
}  // namespace hinfs

namespace hinfsbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_run";
};

// Layers of the live stack whose counters main.cc snapshots. Null for a
// layer the workload does not mount.
struct StackView {
  hinfs::NvmmDevice* nvmm = nullptr;
  hinfs::HinfsFs* hinfs = nullptr;
  hinfs::WalFs* wal = nullptr;
  hinfs::server::Server* server = nullptr;
};

// What one round did.
struct RoundOut {
  uint64_t ops = 0;         // flowops (fileserver, varmail) or requests (wire)
  uint64_t user_bytes = 0;  // bytes the benchmark asked to write
  uint64_t syncs = 0;       // fsync/fdatasync calls
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The layer of the decorator right under Vfs in a traced setup.
  virtual Layer top_layer() const = 0;
  // Builds a fresh stack and brings it to its first op: device,
  // format, file population, server start and client connect. `traced`
  // places TracingFs decorators in the stack.
  virtual hinfs::Status Setup(bool traced) = 0;
  // Tears down the current stack without checking it.
  virtual void Teardown() = 0;
  // One line per resolved configuration item, printed with the results.
  virtual std::vector<std::string> Config() = 0;
  virtual StackView view() = 0;
  // True once the stack runs in steady state (buffer at its watermark, WAL
  // checkpointed).
  virtual bool SteadyState() = 0;
  // Generates the next round's op streams from the seed (not timed).
  virtual void PrepareRound() = 0;
  // Runs the prepared round. `record` keeps latency samples.
  virtual RoundOut RunRound(bool record) = 0;
  // End-of-window drain (SyncFs, plus a WAL checkpoint), so flushed bytes
  // include deferred writeback.
  virtual hinfs::Status Drain() = 0;
  // Correctness: reads during the run that disagreed with the model, then
  // unmount, fsck, remount and read every file back against the model (plus
  // the server's fd and protocol checks). Appends a line per problem.
  virtual void Check(std::vector<std::string>* errors) = 0;

  // Raw samples (nanoseconds) recorded since the last call.
  virtual std::vector<uint32_t> TakeOpLatencies() = 0;
  virtual std::vector<uint32_t> TakeSyncLatencies() = 0;
  // Every op issued after setup.
  virtual OpTally tally() = 0;
};

std::unique_ptr<Workload> MakeFileserver(const Args& args);
std::unique_ptr<Workload> MakeVarmail(const Args& args);
std::unique_ptr<Workload> MakeWire(const Args& args);

}  // namespace hinfsbench

#endif  // HINFSBENCH_SRC_BENCH_H_
