// wire: an in-process hinfsd (server::Server, epoll, 2 workers) serving
// Vfs -> WalFs -> HiNFS over a Unix socket. One client thread keeps a fixed
// depth of 1 KB pread/pwrite requests in flight on each of two AsyncClient
// connections; about one pwrite in four is followed by an fdatasync. The
// writes are below wal.direct_write_bytes, so every one is logged: server
// request handling and WAL group commit do the work, while the write buffer
// and the PMFS namespace see only checkpoint drains.
//
// Each connection owns its files and opens each once, and the server runs
// requests naming one fd in submission order, so the content model can be
// advanced at submit time and every pread checked exactly.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "bench.h"
#include "src/common/rng.h"
#include "src/fs/pmfs/fsck.h"
#include "src/hinfs/hinfs_fs.h"
#include "src/server/async_client.h"
#include "src/server/server.h"
#include "src/vfs/vfs.h"
#include "src/wal/wal_fs.h"
#include "src/wal/wal_log.h"
#include "stack.h"

namespace hinfsbench {
namespace {

using hinfs::ErrorCode;
using hinfs::HinfsFs;
using hinfs::NvmmDevice;
using hinfs::Result;
using hinfs::Status;
using hinfs::Vfs;
using hinfs::WalFs;
using hinfs::server::AsyncClient;
using hinfs::server::Opcode;
using hinfs::server::Request;
using hinfs::server::Response;

constexpr int kConns = 2;
constexpr int kDepth = 4;
constexpr int kFilesPerConn = 32;
constexpr size_t kFileBytes = 64 << 10;
constexpr size_t kIoBytes = 1024;
constexpr int kRoundRequests = 3000;  // per connection
constexpr size_t kDeviceBytes = 48ull << 20;
constexpr size_t kBufferBytes = 8ull << 20;
constexpr size_t kPoolBytes = 256 << 10;
constexpr int kStallTimeoutMs = 10000;

struct WireOp {
  Opcode opcode;
  uint32_t file;  // index into the connection's files
  uint32_t offset;
  uint32_t payload;
};

class Wire final : public Workload {
 public:
  explicit Wire(const Args& args) : args_(args) {
    std::filesystem::create_directories(args.out_dir);
    socket_path_ = args.out_dir + "/wire-" + std::to_string(getpid()) + ".sock";
    pool_.resize(kPoolBytes);
    FillPattern(args.seed * 7919 + 17, pool_.data(), pool_.size());
  }

  Layer top_layer() const override { return Layer::kWal; }

  Status Setup(bool traced) override {
    const hinfs::HinfsOptions hopts = FsConfig(kBufferBytes);
    nvmm_ = std::make_unique<NvmmDevice>(DeviceConfig(kDeviceBytes));
    fs_bytes_ = nvmm_->size() - hopts.wal.total_bytes;
    Result<std::unique_ptr<HinfsFs>> h =
        HinfsFs::Format(nvmm_.get(), hopts, FormatConfig(fs_bytes_));
    if (!h.ok()) {
      return h.status();
    }
    hinfs_ = h->get();
    std::unique_ptr<hinfs::FileSystem> inner =
        traced ? std::make_unique<TracingFs>(Layer::kHinfs, std::move(*h))
               : std::unique_ptr<hinfs::FileSystem>(std::move(*h));
    Result<std::unique_ptr<WalFs>> w =
        WalFs::Format(std::move(inner), nvmm_.get(), fs_bytes_, hopts.wal.total_bytes, hopts.wal);
    if (!w.ok()) {
      return w.status();
    }
    wal_ = w->get();
    top_ = traced ? std::make_unique<TracingFs>(Layer::kWal, std::move(*w))
                  : std::unique_ptr<hinfs::FileSystem>(std::move(*w));
    vfs_ = std::make_unique<Vfs>(top_.get());

    if (Status st = vfs_->Mkdir("/w"); !st.ok()) {
      return st;
    }
    for (int c = 0; c < kConns; c++) {
      Conn& conn = conns_[c];
      conn = Conn();
      conn.rng = hinfs::Rng(args_.seed * 1000003 + static_cast<uint64_t>(c));
      for (int f = 0; f < kFilesPerConn; f++) {
        conn.paths.push_back("/w/f" + std::to_string(c * kFilesPerConn + f));
        Result<int> fd = vfs_->Open(conn.paths.back(), hinfs::kCreate | hinfs::kWrOnly);
        if (!fd.ok()) {
          return fd.status();
        }
        const auto p = static_cast<uint32_t>(conn.rng.Below(kPoolBytes - kFileBytes + 1));
        Result<size_t> n = vfs_->Pwrite(*fd, pool_.data() + p, kFileBytes, 0);
        Status cl = vfs_->Close(*fd);
        if (!n.ok() || *n != kFileBytes || !cl.ok()) {
          return n.ok() ? (cl.ok() ? Status(ErrorCode::kIoError, "short write") : cl) : n.status();
        }
        conn.files.emplace_back();
        conn.files.back().Write(0, pool_.data() + p, kFileBytes);
      }
    }
    if (Status st = vfs_->SyncFs(); !st.ok()) {
      return st;
    }
    fd_baseline_ = vfs_->OpenFdCount();

    hinfs::server::ServerOptions so;
    so.unix_path = socket_path_;
    so.tcp_port = -1;
    so.workers = 2;
    so.max_frame_bytes = hinfs::server::kMaxFrameBytes;
    so.max_conn_queued_bytes = 4u << 20;
    so.max_conn_inflight = 128;
    so.drain_timeout_ms = 5000;
    so.backend = hinfs::server::ServerBackend::kEpoll;
    so.interleave = true;
    so.qos = nullptr;
    server_ = std::make_unique<hinfs::server::Server>(vfs_.get(), so);
    if (Status st = server_->Start(); !st.ok()) {
      return st;
    }
    for (Conn& conn : conns_) {
      Result<std::unique_ptr<AsyncClient>> client = AsyncClient::ConnectUnix(socket_path_);
      if (!client.ok()) {
        return client.status();
      }
      conn.client = std::move(*client);
      for (const std::string& path : conn.paths) {
        Request req;
        req.opcode = Opcode::kOpen;
        req.path = path;
        req.flags = hinfs::kRdWr;
        Result<Response> resp = conn.client->Call(std::move(req));
        if (!resp.ok()) {
          return resp.status();
        }
        if (resp->status != ErrorCode::kOk) {
          return Status(resp->status, "open " + path);
        }
        conn.fds.push_back(static_cast<int32_t>(resp->r0));
      }
    }
    return hinfs::OkStatus();
  }

  void Teardown() override {
    for (Conn& conn : conns_) {
      conn.client.reset();
    }
    server_.reset();
    (void)vfs_->Unmount();
    vfs_.reset();
    top_.reset();
    wal_ = nullptr;
    hinfs_ = nullptr;
    nvmm_.reset();
  }

  std::vector<std::string> Config() override {
    const hinfs::HinfsOptions h = FsConfig(kBufferBytes);
    std::vector<std::string> lines =
        ConfigLines(DeviceConfig(kDeviceBytes), h, hinfs_->buffer().shard_count());
    auto s = [](auto v) { return std::to_string(v); };
    lines.push_back("wal.regions " + s(wal_->wal()->region_count()));
    lines.push_back("wal.total_bytes " + s(h.wal.total_bytes));
    lines.push_back("wal.commit_format checksum");
    lines.push_back("wal.direct_write_bytes " + s(h.wal.direct_write_bytes));
    lines.push_back("wal.checkpoint_ms " + s(h.wal.checkpoint_ms));
    lines.push_back(std::string("server.backend ") + server_->backend_name());
    lines.push_back("server.workers 2, interleave 1, unix socket");
    lines.push_back("client 1 thread, " + s(kConns) + " connections x depth " + s(kDepth) +
                    ", " + s(kConns * kFilesPerConn) + " files of " + s(kFileBytes) +
                    " bytes, " + s(kIoBytes) + "-byte requests");
    lines.push_back(
        "spinning threads: 1 client + 2 workers + 1 event loop; writeback and WAL checkpoint "
        "threads run only for checkpoint drains");
    return lines;
  }

  StackView view() override { return StackView{nvmm_.get(), hinfs_, wal_, server_.get()}; }

  bool SteadyState() override { return wal_->stats().Get(hinfs::kStatWalCheckpoints) > 0; }

  void PrepareRound() override {
    for (Conn& conn : conns_) {
      conn.ops.clear();
      conn.next = 0;
      while (conn.ops.size() < kRoundRequests) {
        WireOp op{};
        op.file = static_cast<uint32_t>(conn.rng.Below(kFilesPerConn));
        op.offset = static_cast<uint32_t>(conn.rng.Below(kFileBytes / kIoBytes) * kIoBytes);
        if (conn.rng.Below(2) == 0) {
          op.opcode = Opcode::kPread;
          conn.ops.push_back(op);
          continue;
        }
        op.opcode = Opcode::kPwrite;
        op.payload = static_cast<uint32_t>(conn.rng.Below(kPoolBytes - kIoBytes + 1));
        conn.ops.push_back(op);
        if (conn.rng.Below(4) == 0 && conn.ops.size() < kRoundRequests) {
          conn.ops.push_back(WireOp{Opcode::kFdatasync, op.file, 0, 0});
        }
      }
    }
  }

  RoundOut RunRound(bool record) override {
    record_ = record;
    round_ = RoundOut{};
    size_t total = 0;
    for (Conn& conn : conns_) {
      total += conn.ops.size();
    }
    done_ = 0;
    while (done_ < total) {
      pollfd pfd[kConns];
      for (int c = 0; c < kConns; c++) {
        Conn& conn = conns_[c];
        while (conn.inflight < kDepth && conn.next < conn.ops.size()) {
          Submit(c, conn.ops[conn.next++]);
        }
        if (conn.client->want_write()) {
          (void)conn.client->OnWritable();
        }
        pfd[c] = pollfd{conn.client->fd(),
                        static_cast<short>(POLLIN | (conn.client->want_write() ? POLLOUT : 0)), 0};
      }
      if (done_ >= total) {
        break;
      }
      const int ready = poll(pfd, kConns, kStallTimeoutMs);
      if (ready <= 0) {
        // The server stopped answering: fail what is left rather than hang.
        for (Conn& conn : conns_) {
          conn.client->Disconnect();  // fires every pending callback with an error
          for (; conn.next < conn.ops.size(); conn.next++) {
            tally_.Record(Status(ErrorCode::kIoError, "server stalled"));
            done_++;
          }
        }
        continue;
      }
      for (int c = 0; c < kConns; c++) {
        if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          (void)conns_[c].client->OnReadable();
        }
        if ((pfd[c].revents & POLLOUT) != 0) {
          (void)conns_[c].client->OnWritable();
        }
      }
    }
    return round_;
  }

  Status Drain() override {
    if (Status st = vfs_->SyncFs(); !st.ok()) {
      return st;
    }
    return wal_->Checkpoint();
  }

  void Check(std::vector<std::string>* errors) override {
    auto fail = [&](const std::string& what, const Status& st) {
      errors->push_back(what + ": " + st.ToString());
    };
    if (mismatches_ != 0) {
      errors->push_back(std::to_string(mismatches_) +
                        " preads disagreed with the model; first: " + first_mismatch_);
    }
    for (Conn& conn : conns_) {
      for (int32_t fd : conn.fds) {
        Request req;
        req.opcode = Opcode::kClose;
        req.fd = fd;
        Result<Response> resp = conn.client->Call(std::move(req));
        if (!resp.ok() || resp->status != ErrorCode::kOk) {
          errors->push_back("close of client fd " + std::to_string(fd) + " failed");
        }
      }
      conn.client.reset();
    }
    server_->Stop();
    if (vfs_->OpenFdCount() != fd_baseline_) {
      errors->push_back("open Vfs fds after Server::Stop: " + std::to_string(vfs_->OpenFdCount()) +
                        ", baseline " + std::to_string(fd_baseline_));
    }
    if (const uint64_t n = server_->stats().Get(hinfs::kStatSrvProtocolErrors); n != 0) {
      errors->push_back("srv_protocol_errors " + std::to_string(n));
    }
    server_.reset();
    if (Status st = vfs_->Unmount(); !st.ok()) {
      fail("unmount", st);
    }
    vfs_.reset();
    top_.reset();
    wal_ = nullptr;
    hinfs_ = nullptr;

    Result<hinfs::FsckReport> report = hinfs::FsckPmfs(nvmm_.get());
    if (!report.ok()) {
      fail("fsck", report.status());
    } else if (!report->clean()) {
      errors->push_back("fsck: " + report->Summary());
    }
    const hinfs::HinfsOptions hopts = FsConfig(kBufferBytes);
    Result<std::unique_ptr<HinfsFs>> h = HinfsFs::Mount(nvmm_.get(), hopts);
    if (!h.ok()) {
      fail("remount hinfs", h.status());
      return;
    }
    Result<std::unique_ptr<WalFs>> w =
        WalFs::Mount(std::move(*h), nvmm_.get(), fs_bytes_, hopts.wal.total_bytes, hopts.wal);
    if (!w.ok()) {
      fail("remount wal", w.status());
      return;
    }
    Vfs vfs(w->get());
    std::vector<uint8_t> buf(kFileBytes + 1);
    for (const Conn& conn : conns_) {
      for (size_t f = 0; f < conn.paths.size(); f++) {
        Result<int> fd = vfs.Open(conn.paths[f], hinfs::kRdOnly);
        if (!fd.ok()) {
          fail("reopen " + conn.paths[f], fd.status());
          continue;
        }
        Result<size_t> n = vfs.Pread(*fd, buf.data(), buf.size(), 0);
        (void)vfs.Close(*fd);
        if (!n.ok() || *n != conn.files[f].size() || !conn.files[f].Matches(0, buf.data(), *n)) {
          errors->push_back(conn.paths[f] + " differs from the model after remount");
        }
      }
    }
    if (Status st = vfs.Unmount(); !st.ok()) {
      fail("unmount after read-back", st);
    }
  }

  std::vector<uint32_t> TakeOpLatencies() override { return std::exchange(op_lat_, {}); }
  std::vector<uint32_t> TakeSyncLatencies() override { return std::exchange(sync_lat_, {}); }
  OpTally tally() override { return tally_; }

 private:
  struct Slot {
    bool busy = false;
    uint64_t start_ns = 0;
    uint32_t req = 0;
    WireOp op{};
    std::vector<uint8_t> expected;  // model bytes a pread must return
  };
  struct Conn {
    std::unique_ptr<AsyncClient> client;
    std::vector<std::string> paths;
    std::vector<int32_t> fds;  // client-visible fd per file
    std::vector<FileModel> files;
    hinfs::Rng rng;
    std::vector<WireOp> ops;
    size_t next = 0;
    int inflight = 0;
    Slot slots[kDepth];
  };

  void Submit(int c, const WireOp& op) {
    Conn& conn = conns_[c];
    int si = 0;
    while (conn.slots[si].busy) {
      si++;
    }
    Slot& slot = conn.slots[si];
    FileModel& model = conn.files[op.file];
    Request req;
    req.opcode = op.opcode;
    req.fd = conn.fds[op.file];
    req.offset = op.offset;
    if (op.opcode == Opcode::kPread) {
      req.count = kIoBytes;
      slot.expected.assign(model.data() + op.offset, model.data() + op.offset + kIoBytes);
    } else if (op.opcode == Opcode::kPwrite) {
      req.data.assign(reinterpret_cast<const char*>(pool_.data() + op.payload), kIoBytes);
      model.Write(op.offset, pool_.data() + op.payload, kIoBytes);
      round_.user_bytes += kIoBytes;
    } else {
      round_.syncs++;
    }
    slot.busy = true;
    slot.op = op;
    slot.req = ++next_req_;
    slot.start_ns = NowNs();
    Status st = conn.client->Submit(
        std::move(req), [this, c, si](Result<Response> r) { Complete(c, si, std::move(r)); },
        /*flush=*/false);
    if (!st.ok()) {
      slot.busy = false;
      tally_.Record(st);
      done_++;
      return;
    }
    conn.inflight++;
  }

  void Complete(int c, int si, Result<Response> r) {
    const uint64_t end = NowNs();
    Conn& conn = conns_[c];
    Slot& slot = conn.slots[si];
    Status st = !r.ok()                          ? r.status()
                : r->status != ErrorCode::kOk ? Status(r->status, "server")
                                              : hinfs::OkStatus();
    if (st.ok() && slot.op.opcode != Opcode::kFdatasync && r->r0 != kIoBytes) {
      st = Status(ErrorCode::kIoError, "short transfer");
    }
    if (st.ok() && slot.op.opcode == Opcode::kPread &&
        (r->data.size() != kIoBytes ||
         std::memcmp(r->data.data(), slot.expected.data(), kIoBytes) != 0)) {
      if (mismatches_++ == 0) {
        FileModel expected;
        expected.Write(slot.op.offset, slot.expected.data(), kIoBytes);
        first_mismatch_ = "pread " + conn.paths[slot.op.file] + ": " +
                          expected.Describe(slot.op.offset,
                                            reinterpret_cast<const uint8_t*>(r->data.data()),
                                            std::min(r->data.size(), kIoBytes));
      }
    }
    if (record_) {
      op_lat_.push_back(ClampNs(end - slot.start_ns));
      if (slot.op.opcode == Opcode::kFdatasync) {
        sync_lat_.push_back(ClampNs(end - slot.start_ns));
      }
    }
    if (Tracer::recording()) {
      RecordSpan(Layer::kClient, Op::kRequest, slot.start_ns, end, slot.req);
    }
    tally_.Record(st);
    round_.ops++;
    slot.busy = false;
    conn.inflight--;
    done_++;
  }

  Args args_;
  std::string socket_path_;
  std::vector<uint8_t> pool_;
  uint64_t fs_bytes_ = 0;
  size_t fd_baseline_ = 0;
  std::unique_ptr<NvmmDevice> nvmm_;
  HinfsFs* hinfs_ = nullptr;
  WalFs* wal_ = nullptr;
  std::unique_ptr<hinfs::FileSystem> top_;  // WalFs, or a TracingFs owning it
  std::unique_ptr<Vfs> vfs_;
  std::unique_ptr<hinfs::server::Server> server_;
  Conn conns_[kConns];

  bool record_ = false;
  RoundOut round_;
  size_t done_ = 0;
  uint32_t next_req_ = 0;
  std::vector<uint32_t> op_lat_, sync_lat_;
  OpTally tally_;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeWire(const Args& args) { return std::make_unique<Wire>(args); }

}  // namespace hinfsbench
