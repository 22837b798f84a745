// Tracing for the per-layer breakdown, recorded from outside the program:
// spans around the benchmark's own calls into Vfs and AsyncClient, and
// pass-through FileSystem decorators (TracingFs) placed between Vfs and its
// top file system and between WalFs and HiNFS.
//
// A span is (layer, op, start, duration, parent, request id). Each thread
// appends to its own chunked buffer with no locking; nesting on one thread
// links a span to the innermost open one. Buffers are only read after every
// recording thread has stopped, and live until the process exits.

#ifndef HINFSBENCH_SRC_TRACE_H_
#define HINFSBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/vfs/file_system.h"

namespace hinfsbench {

enum class Layer : uint8_t { kClient, kVfs, kWal, kHinfs };
enum class Op : uint8_t {
  kRequest,
  kOpen,
  kClose,
  kRead,
  kWrite,
  kSync,
  kStat,
  kUnlink,
  kLookup,
  kCreate,
  kGetAttr,
  kTruncate,
  kReadDir,
  kRename,
  kWholeFs,
  kMmap,
};
const char* LayerName(Layer layer);
const char* OpName(Op op);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index in the same thread's buffer
  uint32_t req = 0;             // request id; 0 when the span has none
  Layer layer = Layer::kVfs;
  Op op = Op::kRequest;
};

// One thread's spans. Chunked so appending never moves recorded spans.
class ThreadSpans {
 public:
  size_t size() const { return size_; }
  const Span& at(size_t i) const { return chunks_[i / kChunk][i % kChunk]; }
  Span& at(size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  uint32_t Append(const Span& span);

  uint32_t open = kNoParent;  // innermost open nested span on this thread

 private:
  static constexpr size_t kChunk = 1 << 16;
  std::vector<std::unique_ptr<Span[]>> chunks_;
  size_t size_ = 0;
};

class Tracer {
 public:
  static void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  static bool recording() { return recording_.load(std::memory_order_relaxed); }
  // The calling thread's buffer, registered on first use.
  static ThreadSpans& Local();
  // Every thread's buffer. Call only when no thread is recording.
  static std::vector<const ThreadSpans*> All();
  // Writes up to `max_spans` spans as CSV. Returns false on I/O failure.
  static bool Dump(const std::string& path, size_t max_spans);

 private:
  static std::atomic<bool> recording_;
};

// Opens a nested span on the calling thread for its lifetime (no-op when the
// tracer is not recording at construction).
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, Op op, uint32_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buf_ = nullptr;
  uint32_t index_ = 0;
};

// Records an already finished span with no parent (a pipelined request,
// which overlaps others on its thread and so cannot nest).
void RecordSpan(Layer layer, Op op, uint64_t start_ns, uint64_t end_ns, uint32_t req);

// Self time of every span of one thread: its duration minus the part of its
// interval covered by its direct children. Children must appear after their
// parent and in start order, as one thread records them.
std::vector<uint64_t> SelfTimes(const ThreadSpans& spans);

// Pass-through FileSystem that records one span per call, tagged `layer`.
class TracingFs final : public hinfs::FileSystem {
 public:
  TracingFs(Layer layer, std::unique_ptr<hinfs::FileSystem> inner)
      : layer_(layer), inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  hinfs::Result<uint64_t> Lookup(uint64_t dir_ino, std::string_view name) override;
  hinfs::Result<uint64_t> Create(uint64_t dir_ino, std::string_view name,
                                 hinfs::FileType type) override;
  hinfs::Status Unlink(uint64_t dir_ino, std::string_view name) override;
  hinfs::Status Rename(uint64_t old_dir, std::string_view old_name, uint64_t new_dir,
                       std::string_view new_name) override;
  hinfs::Result<std::vector<hinfs::DirEntry>> ReadDir(uint64_t dir_ino) override;
  hinfs::Result<hinfs::InodeAttr> GetAttr(uint64_t ino) override;
  hinfs::Result<size_t> Read(uint64_t ino, uint64_t offset, void* dst, size_t len) override;
  hinfs::Result<size_t> Write(uint64_t ino, uint64_t offset, const void* src, size_t len,
                              const hinfs::WriteOptions& options) override;
  hinfs::Status Truncate(uint64_t ino, uint64_t new_size) override;
  hinfs::Status Fsync(uint64_t ino, const hinfs::SyncOptions& options) override;
  using FileSystem::Fsync;
  hinfs::Status SyncFs() override;
  hinfs::Status DropCaches() override;
  hinfs::Status Unmount() override;
  hinfs::Result<uint8_t*> Mmap(uint64_t ino, uint64_t offset, size_t len) override;
  hinfs::Status Munmap(uint64_t ino) override;
  hinfs::Status Msync(uint64_t ino, uint64_t offset, size_t len) override;
  bool SupportsLoggedDurability() const override { return inner_->SupportsLoggedDurability(); }

 private:
  Layer layer_;
  std::unique_ptr<hinfs::FileSystem> inner_;
};

}  // namespace hinfsbench

#endif  // HINFSBENCH_SRC_TRACE_H_
