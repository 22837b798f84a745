#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "model.h"

namespace hinfsbench {

using hinfs::DirEntry;
using hinfs::FileType;
using hinfs::InodeAttr;
using hinfs::Result;
using hinfs::Status;

std::atomic<bool> Tracer::recording_{false};

namespace {

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::unique_ptr<ThreadSpans>>& Registry() {
  static std::vector<std::unique_ptr<ThreadSpans>> buffers;
  return buffers;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kVfs:
      return "vfs";
    case Layer::kWal:
      return "wal";
    case Layer::kHinfs:
      return "hinfs";
  }
  return "?";
}

const char* OpName(Op op) {
  static const char* const kNames[] = {"request", "open",    "close",   "read",  "write",
                                       "sync",    "stat",    "unlink",  "lookup", "create",
                                       "getattr", "truncate", "readdir", "rename", "wholefs",
                                       "mmap"};
  return kNames[static_cast<size_t>(op)];
}

uint32_t ThreadSpans::Append(const Span& span) {
  if (size_ == chunks_.size() * kChunk) {
    chunks_.push_back(std::make_unique<Span[]>(kChunk));
  }
  at(size_) = span;
  return static_cast<uint32_t>(size_++);
}

ThreadSpans& Tracer::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMu());
    Registry().push_back(std::make_unique<ThreadSpans>());
    local = Registry().back().get();
  }
  return *local;
}

std::vector<const ThreadSpans*> Tracer::All() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  std::vector<const ThreadSpans*> out;
  for (const auto& b : Registry()) {
    out.push_back(b.get());
  }
  return out;
}

bool Tracer::Dump(const std::string& path, size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,index,layer,op,start_ns,end_ns,parent,req\n");
  size_t written = 0;
  const std::vector<const ThreadSpans*> all = All();
  for (size_t t = 0; t < all.size() && written < max_spans; t++) {
    for (size_t i = 0; i < all[t]->size() && written < max_spans; i++, written++) {
      const Span& s = all[t]->at(i);
      std::fprintf(f, "%zu,%zu,%s,%s,%llu,%llu,%lld,%u\n", t, i, LayerName(s.layer),
                   OpName(s.op), static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent), s.req);
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Layer layer, Op op, uint32_t req) {
  if (!Tracer::recording()) {
    return;
  }
  buf_ = &Tracer::Local();
  Span s;
  s.layer = layer;
  s.op = op;
  s.parent = buf_->open;
  s.req = req != 0 || s.parent == kNoParent ? req : buf_->at(s.parent).req;
  s.start_ns = NowNs();
  index_ = buf_->Append(s);
  buf_->open = index_;
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) {
    return;
  }
  Span& s = buf_->at(index_);
  s.end_ns = NowNs();
  buf_->open = s.parent;
}

void RecordSpan(Layer layer, Op op, uint64_t start_ns, uint64_t end_ns, uint32_t req) {
  Span s;
  s.layer = layer;
  s.op = op;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.req = req;
  Tracer::Local().Append(s);
}

std::vector<uint64_t> SelfTimes(const ThreadSpans& spans) {
  const size_t n = spans.size();
  std::vector<uint64_t> self(n);
  // Per parent: the part of its interval covered so far by its children, and
  // the end of the last covered stretch. A thread appends spans in start
  // order, so each child either extends that stretch or starts a new one.
  std::vector<uint64_t> covered(n, 0);
  std::vector<uint64_t> covered_to(n, 0);
  for (size_t i = 0; i < n; i++) {
    const Span& s = spans.at(i);
    self[i] = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    if (s.parent == kNoParent || s.parent >= i) {
      continue;
    }
    const Span& p = spans.at(s.parent);
    const uint64_t lo = std::max({s.start_ns, p.start_ns, covered_to[s.parent]});
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      covered[s.parent] += hi - lo;
      covered_to[s.parent] = hi;
    }
  }
  for (size_t i = 0; i < n; i++) {
    self[i] -= std::min(self[i], covered[i]);
  }
  return self;
}

// --- TracingFs ----------------------------------------------------------------

Result<uint64_t> TracingFs::Lookup(uint64_t dir_ino, std::string_view name) {
  ScopedSpan s(layer_, Op::kLookup);
  return inner_->Lookup(dir_ino, name);
}
Result<uint64_t> TracingFs::Create(uint64_t dir_ino, std::string_view name, FileType type) {
  ScopedSpan s(layer_, Op::kCreate);
  return inner_->Create(dir_ino, name, type);
}
Status TracingFs::Unlink(uint64_t dir_ino, std::string_view name) {
  ScopedSpan s(layer_, Op::kUnlink);
  return inner_->Unlink(dir_ino, name);
}
Status TracingFs::Rename(uint64_t old_dir, std::string_view old_name, uint64_t new_dir,
                         std::string_view new_name) {
  ScopedSpan s(layer_, Op::kRename);
  return inner_->Rename(old_dir, old_name, new_dir, new_name);
}
Result<std::vector<DirEntry>> TracingFs::ReadDir(uint64_t dir_ino) {
  ScopedSpan s(layer_, Op::kReadDir);
  return inner_->ReadDir(dir_ino);
}
Result<InodeAttr> TracingFs::GetAttr(uint64_t ino) {
  ScopedSpan s(layer_, Op::kGetAttr);
  return inner_->GetAttr(ino);
}
Result<size_t> TracingFs::Read(uint64_t ino, uint64_t offset, void* dst, size_t len) {
  ScopedSpan s(layer_, Op::kRead);
  return inner_->Read(ino, offset, dst, len);
}
Result<size_t> TracingFs::Write(uint64_t ino, uint64_t offset, const void* src, size_t len,
                                const hinfs::WriteOptions& options) {
  ScopedSpan s(layer_, Op::kWrite);
  return inner_->Write(ino, offset, src, len, options);
}
Status TracingFs::Truncate(uint64_t ino, uint64_t new_size) {
  ScopedSpan s(layer_, Op::kTruncate);
  return inner_->Truncate(ino, new_size);
}
Status TracingFs::Fsync(uint64_t ino, const hinfs::SyncOptions& options) {
  ScopedSpan s(layer_, Op::kSync);
  return inner_->Fsync(ino, options);
}
Status TracingFs::SyncFs() {
  ScopedSpan s(layer_, Op::kWholeFs);
  return inner_->SyncFs();
}
Status TracingFs::DropCaches() {
  ScopedSpan s(layer_, Op::kWholeFs);
  return inner_->DropCaches();
}
Status TracingFs::Unmount() {
  ScopedSpan s(layer_, Op::kWholeFs);
  return inner_->Unmount();
}
Result<uint8_t*> TracingFs::Mmap(uint64_t ino, uint64_t offset, size_t len) {
  ScopedSpan s(layer_, Op::kMmap);
  return inner_->Mmap(ino, offset, len);
}
Status TracingFs::Munmap(uint64_t ino) {
  ScopedSpan s(layer_, Op::kMmap);
  return inner_->Munmap(ino);
}
Status TracingFs::Msync(uint64_t ino, uint64_t offset, size_t len) {
  ScopedSpan s(layer_, Op::kMmap);
  return inner_->Msync(ino, offset, len);
}

}  // namespace hinfsbench
