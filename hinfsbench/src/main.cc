// hinfsbench: end-to-end benchmark of the HiNFS stack.
//
//   hinfsbench --workload fileserver|varmail|wire --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 mounts the TracingFs
// decorators, alternates recorded and unrecorded rounds, and prints the
// per-layer metrics plus the tracing overhead. The last stdout line is the
// JSON result; the exit code is non-zero when any correctness check fails.


#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <thread>

#include "bench.h"
#include "src/hinfs/hinfs_fs.h"
#include "src/server/server.h"
#include "src/wal/wal_fs.h"
#include "src/wal/wal_log.h"

extern char** environ;

namespace hinfsbench {
namespace {

constexpr int kSetups = 9;  // setup_s is the median of this many
constexpr int kMinWarmupRounds = 2;
constexpr int kMaxWarmupRounds = 40;
constexpr double kMaxWarmupSeconds = 10;
constexpr double kQuietStealShare = 0.02;
constexpr size_t kStealNeighbours = 2;  // rounds on each side a round's steal is read over
constexpr size_t kMinRounds = 20;
constexpr size_t kMinTailSamples = 1000;
constexpr double kMaxWindowFactor = 1.5;
// Sample arena capacity per second of the longest window; about twice what
// the fastest workload records.
constexpr size_t kArenaSamplesPerSecond = 250000;

struct Counters {
  uint64_t flushed_bytes = 0, flushed_lines = 0, fences = 0;
  uint64_t buf_hits = 0, buf_misses = 0, stalls = 0, writeback_lines = 0, fetched_lines = 0,
           lock_contended = 0;
  uint64_t eager_writes = 0, lazy_writes = 0;
  uint64_t model_paired = 0, model_accurate = 0;
  uint64_t wal_commits = 0, wal_append_bytes = 0, wal_checkpoint_bytes = 0, wal_log_full = 0;
  uint64_t srv_parked = 0, srv_deferred_ns = 0, srv_chain_defers = 0;
};

Counters Snapshot(const StackView& v) {
  Counters c;
  c.flushed_bytes = v.nvmm->flushed_bytes();
  c.flushed_lines = v.nvmm->flushed_lines();
  c.fences = v.nvmm->fence_count();
  hinfs::DramBufferManager& buf = v.hinfs->buffer();
  c.buf_hits = buf.buffer_hits();
  c.buf_misses = buf.buffer_misses();
  c.stalls = buf.stall_count();
  c.writeback_lines = buf.writeback_lines();
  c.fetched_lines = buf.fetched_lines();
  c.lock_contended = buf.lock_contended();
  c.eager_writes = v.hinfs->stats().Get(hinfs::kStatEagerWrites);
  c.lazy_writes = v.hinfs->stats().Get(hinfs::kStatLazyWrites);
  if (v.wal == nullptr) {
    // The checker's counters are plain fields guarded by its own mutex; they
    // are read only where no thread can be inside HiNFS. With a WAL the
    // checkpoint thread may be, so they stay unsampled there.
    c.model_paired = v.hinfs->checker().paired_decisions();
    c.model_accurate = v.hinfs->checker().accurate_decisions();
  } else {
    hinfs::StatsRegistry& ws = v.wal->stats();
    c.wal_commits = ws.Get(hinfs::kStatWalCommits);
    c.wal_append_bytes = ws.Get(hinfs::kStatWalAppendBytes);
    c.wal_checkpoint_bytes = ws.Get(hinfs::kStatWalCheckpointBytes);
    c.wal_log_full = ws.Get(hinfs::kStatWalLogFullStalls);
  }
  if (v.server != nullptr) {
    hinfs::StatsRegistry& ss = v.server->stats();
    c.srv_parked = ss.Get("srv_parked_responses");
    c.srv_deferred_ns = ss.Get("srv_deferred_stall_ns");
    c.srv_chain_defers = ss.Get("srv_fd_chain_defers");
  }
  return c;
}

// Ticks (1/100 s) the hypervisor ran other guests while this one wanted a
// CPU, summed over all CPUs: the "steal" column of /proc/stat.
uint64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                            &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

// Every raw latency sample of the window, in one buffer allocated and
// written before the first setup. The benchmark's own memory in peak_rss_mb
// is then the same however many ops the program completes.
class SampleArena {
 public:
  explicit SampleArena(size_t capacity) : buf_(capacity) {}
  bool Fits(size_t n) const { return buf_.size() - used_ >= n; }
  // Copies `s`, which must fit, into the arena.
  std::span<const uint32_t> Store(const std::vector<uint32_t>& s) {
    uint32_t* at = buf_.data() + used_;
    std::copy(s.begin(), s.end(), at);
    used_ += s.size();
    return {at, s.size()};
  }

 private:
  std::vector<uint32_t> buf_;
  size_t used_ = 0;
};

struct Round {
  RoundOut out;
  uint64_t steal = 0;
  uint64_t wall_ns = 0;
  double cpu_us = 0;
  bool traced = false;
  double steal_rate = 0;  // ticks per second, over this round and its neighbours
  std::span<const uint32_t> lat_ns, sync_ns;  // raw samples of this round
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Rate(const Round& r) { return Ratio(static_cast<double>(r.out.ops), r.wall_ns / 1e9); }

// Ops per second and CPU time per op of a set of rounds: totals over
// totals, so a slow round weighs in by its length.
double OpsPerSecond(const std::vector<const Round*>& rounds) {
  uint64_t ops = 0, wall_ns = 0;
  for (const Round* r : rounds) {
    ops += r->out.ops;
    wall_ns += r->wall_ns;
  }
  return Ratio(static_cast<double>(ops), wall_ns / 1e9);
}
double CpuUsPerOp(const std::vector<const Round*>& rounds) {
  uint64_t ops = 0;
  double cpu_us = 0;
  for (const Round* r : rounds) {
    ops += r->out.ops;
    cpu_us += r->cpu_us;
  }
  return Ratio(cpu_us, static_cast<double>(ops));
}

// Sets steal_rate of the rounds the newest one neighbours: steal ticks per
// second over each round and kStealNeighbours rounds on either side. The
// counter ticks every 10 ms per CPU, too coarsely to tell whether one round
// of a few tens of milliseconds was stolen; a steal burst lasts longer than
// a round, so a round with stolen neighbours is taken as stolen too.
void ScoreSteal(std::vector<Round>& rounds) {
  const size_t n = rounds.size();
  for (size_t i = n > kStealNeighbours ? n - 1 - kStealNeighbours : 0; i < n; i++) {
    const size_t lo = i >= kStealNeighbours ? i - kStealNeighbours : 0;
    const size_t hi = std::min(n, i + kStealNeighbours + 1);
    uint64_t steal = 0, wall_ns = 0;
    for (size_t j = lo; j < hi; j++) {
      steal += rounds[j].steal;
      wall_ns += rounds[j].wall_ns;
    }
    rounds[i].steal_rate = Ratio(static_cast<double>(steal), wall_ns / 1e9);
  }
}

// Rounds that lost at most kQuietStealShare of the host's CPU time to other
// guests count as quiet.
double QuietStealRate() {
  return kQuietStealShare * 100 * std::max(1u, std::thread::hardware_concurrency());
}

// The rounds measured, of one kind (traced or not): every quiet round, and
// when those hold fewer than kMinRounds rounds or kMinTailSamples latency or
// sync samples (so that every p99 has at least ten samples beyond it), the
// least stolen of the others until they do. Another guest that takes CPUs
// away for part of the run then cannot drag the rates and tails with it.
std::vector<const Round*> MeasuredRounds(const std::vector<Round>& rounds, bool traced) {
  std::vector<const Round*> order;
  for (const Round& r : rounds) {
    if (r.traced == traced) {
      order.push_back(&r);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Round* a, const Round* b) { return a->steal_rate < b->steal_rate; });
  std::vector<const Round*> out;
  size_t lat = 0, sync = 0;
  for (const Round* r : order) {
    const bool enough =
        out.size() >= kMinRounds && lat >= kMinTailSamples && sync >= kMinTailSamples;
    if (enough && r->steal_rate > QuietStealRate()) {
      break;
    }
    out.push_back(r);
    lat += r->lat_ns.size();
    sync += r->sync_ns.size();
  }
  return out;
}

// True when the quiet unrecorded rounds alone meet MeasuredRounds' minimums.
bool EnoughQuiet(const std::vector<Round>& rounds) {
  size_t n = 0, lat = 0, sync = 0;
  for (const Round& r : rounds) {
    if (!r.traced && r.steal_rate <= QuietStealRate()) {
      n++;
      lat += r.lat_ns.size();
      sync += r.sync_ns.size();
    }
  }
  return n >= kMinRounds && lat >= kMinTailSamples && sync >= kMinTailSamples;
}

// Per-(layer, op) totals over every recorded span.
struct SpanTotals {
  struct Cell {
    uint64_t count = 0;
    uint64_t dur_ns = 0;
    uint64_t self_ns = 0;
    uint64_t root_dur_ns = 0;  // duration of spans with no parent
  };
  std::map<std::pair<Layer, Op>, Cell> cells;
  std::vector<uint64_t> request_ns;  // client request round trips

  Cell Sum(Layer layer, std::initializer_list<Op> ops) const {
    Cell total;
    for (const auto& [key, c] : cells) {
      if (key.first != layer) {
        continue;
      }
      if (ops.size() != 0 && std::find(ops.begin(), ops.end(), key.second) == ops.end()) {
        continue;
      }
      total.count += c.count;
      total.dur_ns += c.dur_ns;
      total.self_ns += c.self_ns;
      total.root_dur_ns += c.root_dur_ns;
    }
    return total;
  }
};

SpanTotals FoldSpans() {
  SpanTotals t;
  for (const ThreadSpans* buf : Tracer::All()) {
    const std::vector<uint64_t> self = SelfTimes(*buf);
    for (size_t i = 0; i < buf->size(); i++) {
      const Span& s = buf->at(i);
      const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      if (s.layer == Layer::kClient) {
        t.request_ns.push_back(dur);
        continue;
      }
      SpanTotals::Cell& c = t.cells[{s.layer, s.op}];
      c.count++;
      c.dur_ns += dur;
      c.self_ns += self[i];
      if (s.parent == kNoParent) {
        c.root_dur_ns += dur;
      }
    }
  }
  return t;
}

double MeanUs(const SpanTotals::Cell& c) {
  return Ratio(static_cast<double>(c.dur_ns) / 1e3, static_cast<double>(c.count));
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const StackView& v, const Counters& c0,
                                    const Counters& c1, const std::vector<Round>& rounds) {
  uint64_t ops = 0, user_bytes = 0, syncs = 0, traced_ops = 0;
  for (const Round& r : rounds) {
    ops += r.out.ops;
    user_bytes += r.out.user_bytes;
    syncs += r.out.syncs;
    traced_ops += r.traced ? r.out.ops : 0;
  }
  const double per_op = 1.0 / static_cast<double>(std::max<uint64_t>(ops, 1));
  const double per_traced_op = 1.0 / static_cast<double>(std::max<uint64_t>(traced_ops, 1));
  auto d = [&](uint64_t Counters::*field) { return static_cast<double>(c1.*field - c0.*field); };
  const SpanTotals t = FoldSpans();
  const Layer top = w.top_layer();
  const Layer hinfs = Layer::kHinfs;

  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  // server
  double rtt_p50 = 0, rtt_mean = 0, fs_per_req = 0;
  if (v.server != nullptr) {
    std::vector<uint64_t> rtt = t.request_ns;
    uint64_t sum = 0;
    for (uint64_t x : rtt) sum += x;
    rtt_mean = Ratio(sum / 1e3, rtt.size());
    rtt_p50 = TakePercentile(rtt, 0.5).value_us;
    fs_per_req = t.Sum(top, {}).root_dur_ns / 1e3 * per_traced_op;
  }
  const double reqs = v.server != nullptr ? static_cast<double>(ops) : 0;
  add("server.rtt_p50_us", rtt_p50, "us");
  add("server.fs_us_per_req", fs_per_req, "us");
  add("server.nonfs_us_per_req", v.server != nullptr ? rtt_mean - fs_per_req : 0, "us");
  add("server.parked_frac", Ratio(d(&Counters::srv_parked), reqs), "ratio");
  add("server.deferred_stall_us_per_req", Ratio(d(&Counters::srv_deferred_ns) / 1e3, reqs), "us");
  add("server.fd_chain_defers_per_kreq", Ratio(1e3 * d(&Counters::srv_chain_defers), reqs),
      "count");
  // vfs
  add("vfs.self_us_per_op", t.Sum(Layer::kVfs, {}).self_ns / 1e3 * per_traced_op, "us");
  add("vfs.fs_lookups_per_op",
      static_cast<double>(t.Sum(top, {Op::kLookup}).count) * per_traced_op, "count");
  // wal
  const SpanTotals::Cell wal_sync = t.Sum(Layer::kWal, {Op::kSync});
  add("wal.self_us_per_sync", Ratio(wal_sync.self_ns / 1e3, wal_sync.count), "us");
  add("wal.commits_per_sync", v.wal != nullptr ? Ratio(d(&Counters::wal_commits), syncs) : 0,
      "count");
  add("wal.append_bytes_per_user_byte", Ratio(d(&Counters::wal_append_bytes), user_bytes),
      "ratio");
  add("wal.checkpoint_bytes_per_user_byte",
      Ratio(d(&Counters::wal_checkpoint_bytes), user_bytes), "ratio");
  add("wal.log_full_stalls", d(&Counters::wal_log_full), "count");
  // hinfs
  const double hits = d(&Counters::buf_hits), misses = d(&Counters::buf_misses);
  const double eager = d(&Counters::eager_writes), lazy = d(&Counters::lazy_writes);
  add("hinfs.write_us_per_call", MeanUs(t.Sum(hinfs, {Op::kWrite})), "us");
  add("hinfs.read_us_per_call", MeanUs(t.Sum(hinfs, {Op::kRead})), "us");
  add("hinfs.fsync_us_per_call", MeanUs(t.Sum(hinfs, {Op::kSync})), "us");
  add("hinfs.buffer_hit_frac", Ratio(hits, hits + misses), "ratio");
  add("hinfs.stalls_per_kop", 1e3 * d(&Counters::stalls) * per_op, "count");
  add("hinfs.writeback_lines_per_op", d(&Counters::writeback_lines) * per_op, "count");
  add("hinfs.fetched_lines_per_op", d(&Counters::fetched_lines) * per_op, "count");
  add("hinfs.lock_contended_per_kop", 1e3 * d(&Counters::lock_contended) * per_op, "count");
  add("hinfs.eager_write_frac", Ratio(eager, eager + lazy), "ratio");
  add("hinfs.model_accuracy", Ratio(d(&Counters::model_accurate), d(&Counters::model_paired)),
      "ratio");
  // pmfs: the namespace calls HiNFS inherits from PMFS
  add("pmfs.namespace_us_per_call",
      MeanUs(t.Sum(hinfs, {Op::kCreate, Op::kUnlink, Op::kLookup, Op::kGetAttr})), "us");
  // nvmm
  const double lat_ns = static_cast<double>(v.nvmm->latency().write_latency_ns());
  add("nvmm.flushed_lines_per_op", d(&Counters::flushed_lines) * per_op, "count");
  add("nvmm.fences_per_op", d(&Counters::fences) * per_op, "count");
  add("nvmm.modeled_flush_us_per_op", d(&Counters::flushed_lines) * lat_ns / 1e3 * per_op, "us");
  // tracing overhead: recorded rounds against the unrecorded rounds between them
  const double traced = OpsPerSecond(MeasuredRounds(rounds, true));
  const double untraced = OpsPerSecond(MeasuredRounds(rounds, false));
  add("trace.traced_ops_per_s", traced, "1/s");
  add("trace.untraced_ops_per_s", untraced, "1/s");
  add("trace.overhead_frac", untraced > 0 ? 1 - traced / untraced : 0, "ratio");
  return m;
}

std::vector<Metric> EndToEndMetrics(const Counters& c0, const Counters& c1,
                                    const std::vector<Round>& rounds, double setup_s,
                                    double peak_rss_mb) {
  uint64_t user_bytes = 0;
  for (const Round& r : rounds) {
    user_bytes += r.out.user_bytes;
  }
  const std::vector<const Round*> quiet = MeasuredRounds(rounds, false);
  std::vector<uint64_t> lat, sync;
  for (const Round* r : quiet) {
    lat.insert(lat.end(), r->lat_ns.begin(), r->lat_ns.end());
    sync.insert(sync.end(), r->sync_ns.begin(), r->sync_ns.end());
  }
  std::printf("measured rounds %zu of %zu (quiet rounds, then least stolen)\n", quiet.size(),
              rounds.size());
  const Percentile p50 = TakePercentile(lat, 0.50);
  const Percentile p99 = TakePercentile(lat, 0.99);
  const Percentile s99 = TakePercentile(sync, 0.99);
  for (const auto& [name, p] :
       {std::pair{"lat_p50_us", p50}, {"lat_p99_us", p99}, {"sync_p99_us", s99}}) {
    const bool thin = std::strcmp(name, "lat_p50_us") != 0 && p.beyond < 10;
    std::printf("samples %-12s n=%zu beyond=%zu%s\n", name, p.count, p.beyond,
                thin ? "  (fewer than 10 beyond)" : "");
  }
  return {
      {"ops_per_s", OpsPerSecond(quiet), "1/s"},
      {"lat_p50_us", p50.value_us, "us"},
      {"lat_p99_us", p99.value_us, "us"},
      {"sync_p99_us", s99.value_us, "us"},
      {"nvmm_write_amp",
       Ratio(static_cast<double>(c1.flushed_bytes - c0.flushed_bytes), user_bytes), "ratio"},
      {"cpu_us_per_op", CpuUsPerOp(quiet), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "hinfsbench: %s\n", why.c_str());
  std::exit(2);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "fileserver") {
    w = MakeFileserver(args);
  } else if (args.workload == "varmail") {
    w = MakeVarmail(args);
  } else if (args.workload == "wire") {
    w = MakeWire(args);
  } else {
    Die("unknown workload '" + args.workload + "' (fileserver, varmail, wire)");
  }

  SampleArena arena(
      static_cast<size_t>(kMaxWindowFactor * args.seconds * kArenaSamplesPerSecond));
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    const uint64_t t0 = NowNs();
    hinfs::Status st = w->Setup(args.trace);
    setups.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) {
      Die("setup failed: " + st.ToString());
    }
    if (i + 1 < kSetups) {
      w->Teardown();
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d nproc %u\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  for (const std::string& line : w->Config()) {
    std::printf("config %s\n", line.c_str());
  }

  const uint64_t warm0 = NowNs();
  int warm = 0;
  while (warm < kMaxWarmupRounds && (warm < kMinWarmupRounds || !w->SteadyState()) &&
         (NowNs() - warm0) / 1e9 < kMaxWarmupSeconds) {
    w->PrepareRound();
    w->RunRound(false);
    warm++;
  }
  const bool steady = w->SteadyState();
  std::printf("warmup rounds %d seconds %.3f steady %s\n", warm, (NowNs() - warm0) / 1e9,
              steady ? "yes" : "NO");

  const StackView v = w->view();
  const Counters c0 = Snapshot(v);
  std::vector<Round> rounds;
  // The window lasts --seconds, and is stretched (up to kMaxWindowFactor
  // times) while its quiet rounds are too few to measure on their own. It
  // ends early if the arena could not take two more rounds' samples.
  const uint64_t window0 = NowNs();
  auto elapsed = [&] { return (NowNs() - window0) / 1e9; };
  auto room = [&] {
    return rounds.empty() ||
           arena.Fits(2 * (rounds.back().lat_ns.size() + rounds.back().sync_ns.size()));
  };
  while (rounds.empty() ||
         (room() && (elapsed() < args.seconds ||
                     (elapsed() < kMaxWindowFactor * args.seconds && !EnoughQuiet(rounds))))) {
    w->PrepareRound();
    Round r;
    r.traced = args.trace && rounds.size() % 2 == 1;
    Tracer::SetRecording(r.traced);
    const double cpu0 = ProcessCpuUs();
    const uint64_t steal0 = StealTicks();
    const uint64_t t0 = NowNs();
    r.out = w->RunRound(true);
    r.wall_ns = NowNs() - t0;
    r.steal = StealTicks() - steal0;
    r.cpu_us = ProcessCpuUs() - cpu0;
    Tracer::SetRecording(false);
    const std::vector<uint32_t> lat = w->TakeOpLatencies();
    const std::vector<uint32_t> sync = w->TakeSyncLatencies();
    if (!arena.Fits(lat.size() + sync.size())) {
      Die("sample arena full");
    }
    r.lat_ns = arena.Store(lat);
    r.sync_ns = arena.Store(sync);
    rounds.push_back(r);
    ScoreSteal(rounds);
  }
  hinfs::Status drained = w->Drain();
  const Counters c1 = Snapshot(v);
  const double peak_rss_mb = PeakRssMb();
  std::printf("window rounds %zu seconds %.3f%s\nround ops/s (* traced) / steal ticks:",
              rounds.size(), elapsed(), room() ? "" : " (sample arena full)");
  for (const Round& r : rounds) {
    std::printf(" %.0f%s/%llu", Rate(r), r.traced ? "*" : "",
                static_cast<unsigned long long>(r.steal));
  }
  std::printf("\n");

  std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(*w, v, c0, c1, rounds)
                 : EndToEndMetrics(c0, c1, rounds, Median(setups), peak_rss_mb);

  std::vector<std::string> errors;
  if (!drained.ok()) {
    errors.push_back("end-of-window drain: " + drained.ToString());
  }
  w->Check(&errors);
  const OpTally tally = w->tally();
  if (tally.failed != 0) {
    errors.push_back(std::to_string(tally.failed) + " of " + std::to_string(tally.attempted) +
                     " ops failed");
  }
  if (args.trace) {
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
    if (!Tracer::Dump(path, 200000)) {
      errors.push_back("could not write " + path);
    }
  }
  for (const std::string& e : errors) {
    std::printf("error %s\n", e.c_str());
  }
  PrintResult(errors.empty(), tally.attempted, tally.failed, metrics);
  return errors.empty() ? 0 : 1;
}

uint64_t ParseU64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    Die(std::string("bad value for ") + flag + ": " + v);
  }
  return x;
}

}  // namespace
}  // namespace hinfsbench

int main(int argc, char** argv) {
  using hinfsbench::Die;
  // The benchmark builds every option struct itself; a HINFS_* variable
  // (HINFS_SERVER_BACKEND, for one, overrides ServerOptions::backend) would
  // silently change what is measured.
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "HINFS_", 6) == 0) {
      Die(std::string("refusing to run with ") + *e + " set");
    }
  }
  hinfsbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = hinfsbench::ParseU64("--seed", v);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(hinfsbench::ParseU64("--seconds", v));
    } else if (flag == "--trace") {
      args.trace = hinfsbench::ParseU64("--trace", v) != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Die("usage: hinfsbench --workload fileserver|varmail|wire [--seed N] [--seconds S] "
        "[--trace 0|1] [--out-dir DIR]");
  }
  return hinfsbench::Run(args);
}
