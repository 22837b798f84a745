// fileserver and varmail: the paper's Filebench personalities on Vfs -> HiNFS,
// driven in-process by two client threads, each with a private directory.
//
// fileserver keeps a working set twice the DRAM write buffer, so LRW eviction
// and CLFW writeback run under buffer pressure the whole time (the 5 s
// writeback timer never gets the chance). varmail syncs every append, so the
// eager-persistent path, the Benefit Model and the PMFS namespace do the work
// while the buffer, sized well above the file set, never evicts.

#include <barrier>
#include <functional>
#include <thread>

#include "bench.h"
#include "src/common/rng.h"
#include "src/fs/pmfs/fsck.h"
#include "src/hinfs/hinfs_fs.h"
#include "src/vfs/vfs.h"
#include "stack.h"

namespace hinfsbench {
namespace {

using hinfs::ErrorCode;
using hinfs::HinfsFs;
using hinfs::NvmmDevice;
using hinfs::Result;
using hinfs::Status;
using hinfs::Vfs;

constexpr int kClients = 2;
constexpr size_t kPoolBytes = 1 << 20;  // per-client payload bytes writes copy from

// Releases `n` threads into `body(i)` once per Run() and waits for all of
// them. The threads live as long as the pool, across setups.
class RoundPool {
 public:
  RoundPool(int n, std::function<void(int)> body)
      : start_(n + 1), done_(n + 1), body_(std::move(body)) {
    for (int i = 0; i < n; i++) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  ~RoundPool() {
    stop_ = true;
    start_.arrive_and_wait();
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  void Run() {
    start_.arrive_and_wait();
    done_.arrive_and_wait();
  }

 private:
  void Loop(int i) {
    for (;;) {
      start_.arrive_and_wait();
      if (stop_) {
        return;
      }
      body_(i);
      done_.arrive_and_wait();
    }
  }

  std::barrier<> start_;
  std::barrier<> done_;
  std::function<void(int)> body_;
  bool stop_ = false;  // written before the start barrier the threads then pass
  std::vector<std::thread> threads_;
};

// The Vfs calls the clients make, each recorded as a vfs span when tracing.
class TracedVfs {
 public:
  explicit TracedVfs(Vfs& vfs) : vfs_(vfs) {}
  Result<int> Open(std::string_view path, uint32_t flags) {
    ScopedSpan s(Layer::kVfs, Op::kOpen);
    return vfs_.Open(path, flags);
  }
  Status Close(int fd) {
    ScopedSpan s(Layer::kVfs, Op::kClose);
    return vfs_.Close(fd);
  }
  Result<size_t> Read(int fd, void* dst, size_t len) {
    ScopedSpan s(Layer::kVfs, Op::kRead);
    return vfs_.Read(fd, dst, len);
  }
  Result<size_t> Pread(int fd, void* dst, size_t len, uint64_t offset) {
    ScopedSpan s(Layer::kVfs, Op::kRead);
    return vfs_.Pread(fd, dst, len, offset);
  }
  Result<size_t> Pwrite(int fd, const void* src, size_t len, uint64_t offset) {
    ScopedSpan s(Layer::kVfs, Op::kWrite);
    return vfs_.Pwrite(fd, src, len, offset);
  }
  Status Sync(int fd, bool data_only) {
    ScopedSpan s(Layer::kVfs, Op::kSync);
    return data_only ? vfs_.Fdatasync(fd) : vfs_.Fsync(fd);
  }
  Result<hinfs::InodeAttr> Stat(std::string_view path) {
    ScopedSpan s(Layer::kVfs, Op::kStat);
    return vfs_.Stat(path);
  }
  Status Unlink(std::string_view path) {
    ScopedSpan s(Layer::kVfs, Op::kUnlink);
    return vfs_.Unlink(path);
  }

 private:
  Vfs& vfs_;
};

Status WriteAll(TracedVfs& vfs, int fd, const uint8_t* src, size_t len, uint64_t offset) {
  Result<size_t> n = vfs.Pwrite(fd, src, len, offset);
  if (!n.ok()) {
    return n.status();
  }
  return *n == len ? hinfs::OkStatus() : Status(ErrorCode::kIoError, "short write");
}

// Shared by both personalities: the stack, the clients, and the checks.
class LocalWorkload : public Workload {
 protected:
  struct Client {
    int id = 0;
    std::string dir;
    std::vector<std::string> paths;
    std::vector<FileModel> files;
    std::vector<bool> live;
    hinfs::Rng rng;
    std::vector<uint8_t> pool;
    std::vector<uint8_t> rbuf;
    std::vector<uint32_t> op_lat, sync_lat;
    OpTally tally;
    uint64_t mismatches = 0;
    std::string first_mismatch;
    RoundOut round;
    bool record = false;

    // Ends one flowop: latency sample (end stamped by the caller after its
    // last call into the stack) and the tally.
    void Finish(uint64_t t0, uint64_t t1, const Status& st) {
      if (record) {
        op_lat.push_back(ClampNs(t1 - t0));
      }
      tally.Record(st);
      round.ops++;
    }
    // Times one sync call.
    Status TimedSync(TracedVfs& vfs, int fd, bool data_only) {
      const uint64_t t0 = NowNs();
      Status st = vfs.Sync(fd, data_only);
      if (record) {
        sync_lat.push_back(ClampNs(NowNs() - t0));
      }
      round.syncs++;
      return st;
    }
    // Checks a read of `got` bytes from the start of file `f` that should
    // have returned `want` bytes.
    void Verify(uint32_t f, size_t got, size_t want, const char* what) {
      if (got != want || !files[f].Matches(0, rbuf.data(), got)) {
        Mismatch(f, what,
                 "expected " + std::to_string(want) + " bytes, " +
                     files[f].Describe(0, rbuf.data(), got));
      }
    }
    void Mismatch(uint32_t f, const char* what, const std::string& detail) {
      if (mismatches++ == 0) {
        first_mismatch = std::string(what) + " " + paths[f] + ": " + detail;
      }
    }
  };

  LocalWorkload(const Args& args, size_t device_bytes, size_t buffer_bytes, int files,
                size_t max_file_bytes)
      : args_(args), device_bytes_(device_bytes), buffer_bytes_(buffer_bytes) {
    clients_.resize(kClients);
    for (int i = 0; i < kClients; i++) {
      Client& c = clients_[i];
      c.id = i;
      c.dir = "/c" + std::to_string(i);
      for (int f = 0; f < files; f++) {
        c.paths.push_back(c.dir + "/f" + std::to_string(f));
      }
      c.pool.resize(kPoolBytes);
      FillPattern(args.seed * 7919 + static_cast<uint64_t>(i), c.pool.data(), c.pool.size());
      c.rbuf.resize(max_file_bytes);
    }
    pool_ = std::make_unique<RoundPool>(kClients, [this](int i) { Execute(clients_[i]); });
  }

  // Creates the client's files (recording them in its model).
  virtual Status Populate(Client& c) = 0;
  // Appends the next round's ops for `c`, drawn from c.rng.
  virtual void Generate(Client& c) = 0;
  // Runs the prepared ops of `c` (on its own thread).
  virtual void Execute(Client& c) = 0;

  // A payload slice of `len` bytes from the client's pool.
  static uint32_t PickPayload(Client& c, size_t len) {
    return static_cast<uint32_t>(c.rng.Below(kPoolBytes - len + 1));
  }

 public:
  Layer top_layer() const override { return Layer::kHinfs; }

  Status Setup(bool traced) override {
    nvmm_ = std::make_unique<NvmmDevice>(DeviceConfig(device_bytes_));
    Result<std::unique_ptr<HinfsFs>> fs =
        HinfsFs::Format(nvmm_.get(), FsConfig(buffer_bytes_), FormatConfig(0));
    if (!fs.ok()) {
      return fs.status();
    }
    hinfs_ = fs->get();
    top_ = traced ? std::make_unique<TracingFs>(Layer::kHinfs, std::move(*fs))
                  : std::unique_ptr<hinfs::FileSystem>(std::move(*fs));
    vfs_ = std::make_unique<Vfs>(top_.get());
    for (Client& c : clients_) {
      c.rng = hinfs::Rng(args_.seed * 1000003 + static_cast<uint64_t>(c.id));
      c.files.assign(c.paths.size(), FileModel());
      c.live.assign(c.paths.size(), false);
      if (Status st = vfs_->Mkdir(c.dir); !st.ok()) {
        return st;
      }
      if (Status st = Populate(c); !st.ok()) {
        return st;
      }
    }
    return vfs_->SyncFs();
  }

  void Teardown() override {
    (void)vfs_->Unmount();
    vfs_.reset();
    top_.reset();
    hinfs_ = nullptr;
    nvmm_.reset();
  }

  std::vector<std::string> Config() override {
    std::vector<std::string> lines =
        ConfigLines(DeviceConfig(device_bytes_), FsConfig(buffer_bytes_),
                    hinfs_->buffer().shard_count());
    lines.push_back("hinfs.buffer_capacity_blocks " +
                    std::to_string(hinfs_->buffer().capacity_blocks()));
    lines.push_back("clients " + std::to_string(kClients) + " threads, files " +
                    std::to_string(clients_[0].paths.size()) + " per client");
    lines.push_back("spinning threads: " + std::to_string(kClients) +
                    " clients + 1 writeback");
    return lines;
  }

  StackView view() override { return StackView{nvmm_.get(), hinfs_, nullptr, nullptr}; }

  void PrepareRound() override {
    for (Client& c : clients_) {
      Generate(c);
    }
  }

  RoundOut RunRound(bool record) override {
    for (Client& c : clients_) {
      c.record = record;
      c.round = RoundOut{};
    }
    pool_->Run();
    RoundOut out;
    for (const Client& c : clients_) {
      out.ops += c.round.ops;
      out.user_bytes += c.round.user_bytes;
      out.syncs += c.round.syncs;
    }
    return out;
  }

  Status Drain() override { return vfs_->SyncFs(); }

  void Check(std::vector<std::string>* errors) override {
    auto fail = [&](const std::string& what, const Status& st) {
      errors->push_back(what + ": " + st.ToString());
    };
    for (const Client& c : clients_) {
      if (c.mismatches != 0) {
        errors->push_back(std::to_string(c.mismatches) + " reads of " + c.dir +
                          " disagreed with the model; first: " + c.first_mismatch);
      }
    }
    if (Status st = vfs_->Unmount(); !st.ok()) {
      fail("unmount", st);
    }
    vfs_.reset();
    top_.reset();
    hinfs_ = nullptr;
    Result<hinfs::FsckReport> report = hinfs::FsckPmfs(nvmm_.get());
    if (!report.ok()) {
      fail("fsck", report.status());
    } else if (!report->clean()) {
      errors->push_back("fsck: " + report->Summary());
    }
    Result<std::unique_ptr<HinfsFs>> fs = HinfsFs::Mount(nvmm_.get(), FsConfig(buffer_bytes_));
    if (!fs.ok()) {
      fail("remount", fs.status());
      return;
    }
    Vfs vfs(fs->get());
    for (Client& c : clients_) {
      CheckClient(vfs, c, errors);
    }
    if (Status st = vfs.Unmount(); !st.ok()) {
      fail("unmount after read-back", st);
    }
  }

  std::vector<uint32_t> TakeOpLatencies() override { return Take(&Client::op_lat); }
  std::vector<uint32_t> TakeSyncLatencies() override { return Take(&Client::sync_lat); }

  OpTally tally() override {
    OpTally t;
    for (const Client& c : clients_) {
      t.Add(c.tally);
    }
    return t;
  }

 protected:
  std::vector<uint32_t> Take(std::vector<uint32_t> Client::*field) {
    std::vector<uint32_t> all;
    for (Client& c : clients_) {
      all.insert(all.end(), (c.*field).begin(), (c.*field).end());
      (c.*field).clear();
    }
    return all;
  }

  // Reads the remounted directory of `c` back against its model: the same
  // names, and every file's full contents.
  void CheckClient(Vfs& vfs, Client& c, std::vector<std::string>* errors) {
    Result<std::vector<hinfs::DirEntry>> entries = vfs.ReadDir(c.dir);
    if (!entries.ok()) {
      errors->push_back("readdir " + c.dir + ": " + entries.status().ToString());
      return;
    }
    size_t live = 0;
    for (bool l : c.live) {
      live += l ? 1 : 0;
    }
    if (entries->size() != live) {
      errors->push_back(c.dir + " holds " + std::to_string(entries->size()) +
                        " files after remount, model has " + std::to_string(live));
    }
    for (size_t f = 0; f < c.paths.size(); f++) {
      if (!c.live[f]) {
        continue;
      }
      Result<int> fd = vfs.Open(c.paths[f], hinfs::kRdOnly);
      if (!fd.ok()) {
        errors->push_back("reopen " + c.paths[f] + ": " + fd.status().ToString());
        continue;
      }
      std::vector<uint8_t> buf(c.files[f].size() + 1);
      Result<size_t> n = vfs.Pread(*fd, buf.data(), buf.size(), 0);
      (void)vfs.Close(*fd);
      if (!n.ok() || *n != c.files[f].size() || !c.files[f].Matches(0, buf.data(), *n)) {
        errors->push_back(c.paths[f] + " differs from the model after remount");
      }
    }
  }

  Args args_;
  size_t device_bytes_;
  size_t buffer_bytes_;
  std::unique_ptr<NvmmDevice> nvmm_;
  std::unique_ptr<hinfs::FileSystem> top_;  // HinfsFs, or a TracingFs owning it
  HinfsFs* hinfs_ = nullptr;
  std::unique_ptr<Vfs> vfs_;
  std::vector<Client> clients_;
  std::unique_ptr<RoundPool> pool_;  // last: its threads use the members above
};

// --- fileserver -------------------------------------------------------------------

constexpr int kFsFiles = 64;
constexpr size_t kFsFileBytes = 128 << 10;
constexpr size_t kFsOverwriteBytes = 16 << 10;
constexpr int kFsRoundOps = 100;  // per client

class Fileserver final : public LocalWorkload {
 public:
  explicit Fileserver(const Args& args)
      // Working set 2 x 64 x 128 KB = 16 MB: twice the 8 MB buffer.
      : LocalWorkload(args, 48ull << 20, 8ull << 20, kFsFiles, kFsFileBytes) {}

  bool SteadyState() override {
    const hinfs::DramBufferManager& b = hinfs_->buffer();
    return b.writeback_blocks() > 0 && b.free_blocks() < b.capacity_blocks() / 2;
  }

 private:
  enum class Kind : uint8_t { kRead, kRewrite, kOverwrite, kStat, kRecreate };
  struct FsOp {
    Kind kind;
    bool fsync;
    uint32_t file;
    uint32_t payload;
    uint32_t offset;
    uint32_t len;
  };

  Status Populate(Client& c) override {
    TracedVfs vfs(*vfs_);
    for (size_t f = 0; f < c.paths.size(); f++) {
      Result<int> fd = vfs.Open(c.paths[f], hinfs::kCreate | hinfs::kWrOnly);
      if (!fd.ok()) {
        return fd.status();
      }
      const uint32_t p = PickPayload(c, kFsFileBytes);
      Status st = WriteAll(vfs, *fd, c.pool.data() + p, kFsFileBytes, 0);
      Status cl = vfs.Close(*fd);
      if (!st.ok() || !cl.ok()) {
        return st.ok() ? cl : st;
      }
      c.files[f].Write(0, c.pool.data() + p, kFsFileBytes);
      c.live[f] = true;
    }
    return hinfs::OkStatus();
  }

  void Generate(Client& c) override {
    std::vector<FsOp>& ops = ops_[c.id];
    ops.clear();
    for (int i = 0; i < kFsRoundOps; i++) {
      FsOp op{};
      // Cheapest to dearest: stat, 16 KB overwrite, whole-file read, then
      // the whole-file writes. Reads span the middle of the distribution, so
      // the median lands inside one kind of op rather than between two.
      const uint64_t pick = c.rng.Below(100);
      op.kind = pick < 10   ? Kind::kStat
                : pick < 25 ? Kind::kOverwrite
                : pick < 65 ? Kind::kRead
                : pick < 90 ? Kind::kRewrite
                            : Kind::kRecreate;
      op.file = static_cast<uint32_t>(c.rng.Below(kFsFiles));
      op.len = op.kind == Kind::kOverwrite ? kFsOverwriteBytes : kFsFileBytes;
      op.payload = PickPayload(c, op.len);
      if (op.kind == Kind::kOverwrite) {
        op.offset = static_cast<uint32_t>(
            c.rng.Below((kFsFileBytes - kFsOverwriteBytes) / 4096 + 1) * 4096);
      }
      // Every other rewrite is followed by fsync: about 25 syncs a round, so
      // the fsync tail rests on many samples of one kind of sync.
      op.fsync = op.kind == Kind::kRewrite && c.rng.Below(2) == 0;
      ops.push_back(op);
    }
  }

  void Execute(Client& c) override {
    TracedVfs vfs(*vfs_);
    for (const FsOp& op : ops_[c.id]) {
      const std::string& path = c.paths[op.file];
      FileModel& model = c.files[op.file];
      const uint8_t* payload = c.pool.data() + op.payload;
      const uint64_t t0 = NowNs();
      Status st;
      switch (op.kind) {
        case Kind::kRead: {
          Result<int> fd = vfs.Open(path, hinfs::kRdOnly);
          if (!fd.ok()) {
            st = fd.status();
            break;
          }
          Result<size_t> n = vfs.Read(*fd, c.rbuf.data(), kFsFileBytes);
          Status cl = vfs.Close(*fd);
          const uint64_t t1 = NowNs();
          st = !n.ok() ? n.status() : cl;
          if (n.ok()) {
            c.Verify(op.file, *n, model.size(), "read");
          }
          c.Finish(t0, t1, st);
          continue;
        }
        case Kind::kStat: {
          Result<hinfs::InodeAttr> attr = vfs.Stat(path);
          const uint64_t t1 = NowNs();
          if (attr.ok() && attr->size != model.size()) {
            c.Mismatch(op.file, "stat",
                       "size " + std::to_string(attr->size) + ", model " +
                           std::to_string(model.size()));
          }
          c.Finish(t0, t1, attr.status());
          continue;
        }
        case Kind::kRecreate:
          st = vfs.Unlink(path);
          if (!st.ok()) {
            break;
          }
          model.Clear();
          c.live[op.file] = false;
          [[fallthrough]];
        case Kind::kRewrite:
        case Kind::kOverwrite: {
          const uint32_t flags =
              op.kind == Kind::kRecreate ? hinfs::kCreate | hinfs::kWrOnly : hinfs::kWrOnly;
          Result<int> fd = vfs.Open(path, flags);
          if (!fd.ok()) {
            st = fd.status();
            break;
          }
          c.live[op.file] = true;
          st = WriteAll(vfs, *fd, payload, op.len, op.offset);
          if (st.ok()) {
            model.Write(op.offset, payload, op.len);
            c.round.user_bytes += op.len;
          }
          if (st.ok() && op.fsync) {
            st = c.TimedSync(vfs, *fd, /*data_only=*/false);
          }
          Status cl = vfs.Close(*fd);
          st = st.ok() ? cl : st;
          break;
        }
      }
      c.Finish(t0, NowNs(), st);
    }
  }

  std::vector<FsOp> ops_[kClients];
};

// --- varmail ----------------------------------------------------------------------

constexpr int kVmFiles = 256;
constexpr size_t kVmInitialBytes = 16 << 10;
constexpr size_t kVmMaxFileBytes = 256 << 10;
constexpr int kVmRoundIterations = 250;  // per client; 4 flowops each

class Varmail final : public LocalWorkload {
 public:
  explicit Varmail(const Args& args)
      // ~8 MB of mail in a 32 MB buffer: the low watermark is never reached.
      : LocalWorkload(args, 64ull << 20, 32ull << 20, kVmFiles, kVmMaxFileBytes) {}

  bool SteadyState() override { return true; }

 private:
  enum class Kind : uint8_t { kDelete, kCreate, kAppend, kRead };
  struct VmOp {
    Kind kind;
    uint32_t file;
    uint32_t payload;
    uint32_t len;
  };

  // Appends are 1-15 KB, so files average about 16 KB between deletions.
  static size_t AppendBytes(Client& c) { return (1 + c.rng.Below(15)) << 10; }

  Status Populate(Client& c) override {
    sizes_[c.id].assign(kVmFiles, kVmInitialBytes);
    TracedVfs vfs(*vfs_);
    for (size_t f = 0; f < c.paths.size(); f++) {
      Result<int> fd = vfs.Open(c.paths[f], hinfs::kCreate | hinfs::kWrOnly);
      if (!fd.ok()) {
        return fd.status();
      }
      const uint32_t p = PickPayload(c, kVmInitialBytes);
      Status st = WriteAll(vfs, *fd, c.pool.data() + p, kVmInitialBytes, 0);
      Status cl = vfs.Close(*fd);
      if (!st.ok() || !cl.ok()) {
        return st.ok() ? cl : st;
      }
      c.files[f].Write(0, c.pool.data() + p, kVmInitialBytes);
      c.live[f] = true;
    }
    return hinfs::OkStatus();
  }

  // Filebench varmail's loop: delete a mail, write a new one (append +
  // fdatasync), append to an existing one after reading it (+ fdatasync),
  // and read a whole one.
  void Generate(Client& c) override {
    std::vector<VmOp>& ops = ops_[c.id];
    std::vector<size_t>& sizes = sizes_[c.id];
    ops.clear();
    for (int i = 0; i < kVmRoundIterations; i++) {
      const auto x = static_cast<uint32_t>(c.rng.Below(kVmFiles));
      const size_t created = AppendBytes(c);
      ops.push_back({Kind::kDelete, x, 0, 0});
      ops.push_back({Kind::kCreate, x, PickPayload(c, created), static_cast<uint32_t>(created)});
      sizes[x] = created;
      uint32_t y = static_cast<uint32_t>(c.rng.Below(kVmFiles));
      const size_t appended = AppendBytes(c);
      while (sizes[y] + appended > kVmMaxFileBytes) {
        y = static_cast<uint32_t>(c.rng.Below(kVmFiles));
      }
      ops.push_back({Kind::kAppend, y, PickPayload(c, appended), static_cast<uint32_t>(appended)});
      sizes[y] += appended;
      ops.push_back({Kind::kRead, static_cast<uint32_t>(c.rng.Below(kVmFiles)), 0, 0});
    }
  }

  void Execute(Client& c) override {
    TracedVfs vfs(*vfs_);
    for (const VmOp& op : ops_[c.id]) {
      const std::string& path = c.paths[op.file];
      FileModel& model = c.files[op.file];
      const uint8_t* payload = c.pool.data() + op.payload;
      const uint64_t t0 = NowNs();
      Status st;
      switch (op.kind) {
        case Kind::kDelete:
          st = vfs.Unlink(path);
          if (st.ok()) {
            model.Clear();
            c.live[op.file] = false;
          }
          break;
        case Kind::kCreate:
        case Kind::kAppend: {
          const bool create = op.kind == Kind::kCreate;
          Result<int> fd =
              vfs.Open(path, create ? hinfs::kCreate | hinfs::kWrOnly : hinfs::kRdWr);
          if (!fd.ok()) {
            st = fd.status();
            break;
          }
          c.live[op.file] = true;
          const size_t old_size = model.size();
          Result<size_t> n = old_size == 0 ? Result<size_t>(size_t{0})
                                           : vfs.Pread(*fd, c.rbuf.data(), old_size, 0);
          st = n.status();
          if (st.ok()) {
            st = WriteAll(vfs, *fd, payload, op.len, old_size);
          }
          if (st.ok()) {
            model.Write(old_size, payload, op.len);
            c.round.user_bytes += op.len;
            st = c.TimedSync(vfs, *fd, /*data_only=*/true);
          }
          Status cl = vfs.Close(*fd);
          const uint64_t t1 = NowNs();
          st = st.ok() ? cl : st;
          if (n.ok()) {
            c.Verify(op.file, *n, old_size, "read before append");
          }
          c.Finish(t0, t1, st);
          continue;
        }
        case Kind::kRead: {
          Result<int> fd = vfs.Open(path, hinfs::kRdOnly);
          if (!fd.ok()) {
            st = fd.status();
            break;
          }
          Result<size_t> n = vfs.Pread(*fd, c.rbuf.data(), model.size(), 0);
          Status cl = vfs.Close(*fd);
          const uint64_t t1 = NowNs();
          st = !n.ok() ? n.status() : cl;
          if (n.ok()) {
            c.Verify(op.file, *n, model.size(), "read");
          }
          c.Finish(t0, t1, st);
          continue;
        }
      }
      c.Finish(t0, NowNs(), st);
    }
  }

  std::vector<VmOp> ops_[kClients];
  std::vector<size_t> sizes_[kClients];  // file sizes as the generator sees them
};

}  // namespace

std::unique_ptr<Workload> MakeFileserver(const Args& args) {
  return std::make_unique<Fileserver>(args);
}
std::unique_ptr<Workload> MakeVarmail(const Args& args) { return std::make_unique<Varmail>(args); }

}  // namespace hinfsbench
