// Restart-and-serve benchmark: a few leaves behind one result-cache-enabled
// Aggregator; one leaf at a time goes down and its successor comes up
// through the workload's recovery source, and between restarts a single
// client thread drives the workload's query and ingest mix. Every query is
// checked against an independent oracle (oracle.h), every restart against
// the acknowledged rows, fixed-data digests and its intended source.
//
// Usage:
//   restartbench --workload <shm_rollover|crash_rowmajor|crash_columnar>
//                --seed <n> --seconds <s> --trace <0|1>
//                --data-dir <dir> --out-dir <dir>
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// See README.md for the metric -> layer map and the workload make-up.

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/footprint.h"
#include "core/restart_manager.h"
#include "host_probe.h"
#include "oracle.h"
#include "query/result_digest.h"
#include "server/aggregator.h"
#include "server/leaf_server.h"
#include "shm/shm_segment.h"
#include "trace.h"

namespace restartbench {
namespace {

namespace fs = std::filesystem;
using scuba::Aggregator;
using scuba::BackupFormatKind;
using scuba::LeafServer;
using scuba::LeafServerConfig;
using scuba::LeafState;
using scuba::RecoveryResult;
using scuba::RecoverySource;

// ---------------------------------------------------------------------------
// Input make-up. The same on every workload, so set-up is comparable.

constexpr size_t kLeaves = 3;
constexpr size_t kTables = 2;
const char* const kTableNames[kTables] = {"http", "rpc"};
constexpr int64_t kStartTime = 1400000000;
constexpr int64_t kRowsPerSecond = 4000;           // event time, per table
constexpr size_t kInitialRowsPerTable = 800000;    // = 200 s of event time
constexpr size_t kLoadBatchRows = 8000;            // round-robin over leaves
constexpr int64_t kBucketSeconds = 10;
constexpr int64_t kDashboardWindowSeconds = 120;
constexpr int64_t kNarrowWindowSeconds = 30;
// Table 0 ("http") is loaded once and then only read: its dashboards are
// the result cache's case. Table 1 ("rpc") takes all run-time ingest.
constexpr size_t kStaticTable = 0;
constexpr size_t kLiveTable = 1;
constexpr int kCopyThreads = 2;
constexpr uint64_t kInFlightCopyBytes = 4ull << 20;
constexpr uint64_t kFootprintSlackBytes = 8ull << 20;  // metadata, alignment
constexpr uint64_t kResultCacheBytes = 8ull << 20;
constexpr int64_t kRestoreGuardMicros = 60'000'000;

struct Workload {
  const char* name;
  // true: ShutdownToSharedMemory, then restore from shm; false: Crash,
  // then recover from the disk backup in `format`.
  bool clean_shutdown;
  BackupFormatKind format;
  int dashboard_per_round;
  int adhoc_per_round;
  // Dashboards read the static table over a fixed window (cacheable), or
  // the live table over a window sliding with its newest row.
  size_t dashboard_table;
  int64_t dashboard_window_seconds;
  int64_t ingest_rows_per_second;  // wall clock, open loop
  size_t ingest_batch_rows;
};

const Workload kWorkloads[] = {
    {"shm_rollover", true, BackupFormatKind::kRowMajor, 20, 2, kStaticTable,
     kDashboardWindowSeconds, 8000, 1024},
    {"crash_rowmajor", false, BackupFormatKind::kRowMajor, 2, 4, kStaticTable,
     kDashboardWindowSeconds, 8000, 1024},
    {"crash_columnar", false, BackupFormatKind::kColumnar, 8, 2, kLiveTable,
     kNarrowWindowSeconds, 48000, 512},
};

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of `v` (the lowest and highest quarters are
/// dropped). Like the median it ignores outliers, but it moves smoothly
/// with the share of samples taken in a slow host phase, where the median
/// of a skewed sample jumps from the fast mode to the slow one.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t k = drop; k < v.size() - drop; ++k) sum += v[k];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

struct Usage {
  double cpu_s = 0;
  uint64_t minor_faults = 0;
};
Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Gib(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(1ull << 30);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    const std::string ext = e.path().extension().string();
    if (e.is_regular_file() && ext != ".json") bytes += e.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Query decks.

Query Bucketed(size_t table, int64_t begin, int64_t end) {
  Query q;
  q.table = kTableNames[table];
  q.begin_time = begin;
  q.end_time = end;
  q.time_bucket_seconds = kBucketSeconds;
  return q;
}

/// Dashboard shape `shape` (0..5) over [begin, end]: repeated, bucketed,
/// bounded-window queries whose sealed buckets the result cache can serve.
Query DashboardQuery(size_t shape, size_t table, int64_t begin, int64_t end) {
  using scuba::Avg;
  using scuba::Count;
  using scuba::Max;
  using scuba::P90;
  using scuba::Sum;
  Query q = Bucketed(table, begin, end);
  switch (shape) {
    case 0:
      q.group_by = {"service"};
      q.aggregates = {Count()};
      break;
    case 1:
      q.aggregates = {Avg("latency_ms"), Max("latency_ms")};
      break;
    case 2:
      q.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
      q.group_by = {"service"};
      q.aggregates = {Count()};
      break;
    case 3:
      q.aggregates = {P90("latency_ms")};
      break;
    case 4:
      q.group_by = {"status"};
      q.aggregates = {Sum("bytes_out")};
      break;
    default:
      q.predicates = {{"service", CompareOp::kEq, Value(ServiceNames()[0])}};
      q.aggregates = {Count(), Avg("latency_ms")};
      break;
  }
  return q;
}
constexpr size_t kDashboardShapes = 6;

/// Ad-hoc query number `k`: full time range (so the cache is bypassed),
/// and literals drawn fresh from `rng`, so no two are alike. The shape
/// cycles through a fixed list of twelve group-by / predicate / aggregate
/// combinations, so every run (whatever its seed and length) has the same
/// mix of cheap and expensive shapes.
Query AdhocQuery(uint64_t k, Rng* rng, size_t* table) {
  using scuba::Avg;
  using scuba::Count;
  using scuba::Max;
  using scuba::Min;
  using scuba::P50;
  using scuba::P90;
  using scuba::P99;
  using scuba::Sum;
  k %= 12;
  *table = k / 6;
  Query q;
  q.table = kTableNames[*table];
  static const std::vector<std::vector<std::string>> kGroups = {
      {"service"}, {"endpoint"}, {"status"}, {"service", "status"}, {"host"}};
  q.group_by = kGroups[k % kGroups.size()];
  switch (k % 6) {
    case 0:
      break;
    case 1:
      q.predicates = {{"bytes_out", CompareOp::kGe,
                       Value(static_cast<int64_t>(200 + rng->Below(60000)))}};
      break;
    case 2:
      q.predicates = {{"latency_ms", CompareOp::kLt,
                       Value(0.1 * static_cast<double>(1 + rng->Below(5000)))}};
      break;
    case 3:
      q.predicates = {{"endpoint", CompareOp::kEq,
                       Value(EndpointNames()[rng->Below(kEndpoints)])}};
      break;
    case 4:
      q.predicates = {{"service", CompareOp::kNe,
                       Value(ServiceNames()[rng->Below(kServices)])}};
      break;
    default:
      q.predicates = {{"status", CompareOp::kEq,
                       Value(kStatusCodes[rng->Below(4)])}};
      break;
  }
  switch ((k / 2) % 6) {
    case 0:
      q.aggregates = {Count(), Avg("latency_ms")};
      break;
    case 1:
      q.aggregates = {Count(), Sum("bytes_out"), Max("bytes_out")};
      break;
    case 2:
      q.aggregates = {P50("latency_ms"), P99("latency_ms")};
      break;
    case 3:
      q.aggregates = {P90("bytes_out"), Min("latency_ms")};
      break;
    case 4:
      q.aggregates = {Count(), P99("latency_ms"), Avg("bytes_out")};
      break;
    default:
      q.aggregates = {Max("latency_ms"), Sum("latency_ms")};
      break;
  }
  return q;
}

/// Fixed-data probes: they cover only the initial load's time range, which
/// later ingest (strictly newer rows) never touches, so their digests are
/// the same after every restart, blocking or instant, from any source.
/// Their aggregates are exact under any row-block partitioning.
Query ProbeQuery(size_t table, bool narrow) {
  const int64_t last = kStartTime +
                       static_cast<int64_t>(kInitialRowsPerTable) /
                           kRowsPerSecond - 1;
  Query q;
  q.table = kTableNames[table];
  q.begin_time = narrow ? last + 1 - 2 * kBucketSeconds : kStartTime;
  q.end_time = last;
  if (narrow) q.time_bucket_seconds = kBucketSeconds;
  q.group_by = {"service"};
  q.aggregates = {scuba::Count(), scuba::Sum("bytes_out"),
                  scuba::Min("latency_ms"), scuba::Max("latency_ms")};
  if (narrow) q.aggregates.push_back(scuba::P90("latency_ms"));
  return q;
}

// ---------------------------------------------------------------------------
// The benchmark run.

struct Samples {
  // end to end
  std::vector<double> downtime_s, first_query_s, restore_s;
  std::vector<double> dashboard_ms, adhoc_ms, ingest_rows_per_s;
  // core
  std::vector<double> shutdown_s, shutdown_gib_s, shutdown_faults,
      segment_grows;
  std::vector<double> restore_core_s, restore_gib_s, restore_bytes,
      restore_faults, restore_cpu_s;
  std::vector<double> instant_open_s, on_demand, background, restore_wait_ms;
  // disk
  std::vector<double> disk_read_s, disk_translate_s, disk_bytes_read,
      disk_rows;
  std::vector<double> cols_read_s, cols_adopt_s, cols_tail_rows;
  // server / query
  std::vector<double> add_rows_ms;
  std::vector<double> decode_ms, kernel_ms, merge_ms, prune_ms, rows_scanned,
      bytes_decoded;
  uint64_t adhoc_blocks_pruned = 0, adhoc_blocks_total = 0;
  uint64_t cache_hit = 0, cache_miss = 0;
  std::vector<double> leaf_execute_ms, fanout_wait_ms;
  // host
  std::vector<double> memcpy_gib_s, first_touch_gib_s, seq_read_gib_s,
      crc_gib_s;
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed, bool trace, std::string data_dir)
      : w_(w),
        seed_(seed),
        data_dir_(std::move(data_dir)),
        prefix_("rb" + std::to_string(getpid())),
        oracle_(kTables),
        adhoc_rng_(seed * 0x2545f4914f6cdd1dull + 7),
        recorder_(trace ? std::make_unique<SpanRecorder>() : nullptr) {
    for (size_t t = 0; t < kTables; ++t) {
      streams_.emplace_back(seed * 1000003 + t, kStartTime, kRowsPerSecond);
    }
  }

  ~Bench() {
    leaves_.clear();
    scuba::ShmSegment::RemoveAll("/" + prefix_);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  bool Setup();
  void Run(double seconds);
  void Report(bool trace, double setup_s, const std::string& out_dir);

  bool correct() const { return errors_ == 0; }

 private:
  LeafServerConfig Config(size_t leaf, bool instant) const {
    LeafServerConfig c;
    c.leaf_id = static_cast<uint32_t>(leaf);
    c.namespace_prefix = prefix_;
    c.backup_dir = data_dir_ + "/leaf_" + std::to_string(leaf);
    c.backup_format = w_.format;
    c.instant_restore_enabled = instant;
    c.num_copy_threads = kCopyThreads;
    c.max_in_flight_copy_bytes = kInFlightCopyBytes;
    c.num_query_threads = 1;
    c.memory_capacity_bytes = 4ull << 30;
    return c;
  }

  void PointAggregator() {
    std::vector<LeafServer*> ptrs;
    for (auto& l : leaves_) ptrs.push_back(l.get());
    agg_.SetLeaves(ptrs);
  }

  void Fail(const std::string& what) {
    ++errors_;
    if (errors_ <= 20) std::fprintf(stderr, "restartbench: %s\n", what.c_str());
  }

  /// Runs `q` through the aggregator; checks completeness and the oracle.
  /// Returns false (and counts a failed query) on any error.
  bool Execute(size_t table, const Query& q, QueryResult* out,
               double* wall_ms);
  bool Ingest(size_t batch_rows, double* add_ms);
  void RestartCycle(bool instant);
  void ServeRound();
  void ProbeHost();
  bool CheckLeafAfterRestart(size_t leaf);
  uint32_t LeafDigest(size_t leaf, size_t table, bool* ok);

  const Workload& w_;
  uint64_t seed_;
  std::string data_dir_;
  std::string prefix_;
  Oracle oracle_;
  std::vector<RowStream> streams_;
  Rng adhoc_rng_;
  std::unique_ptr<SpanRecorder> recorder_;
  std::unique_ptr<HostProbe> probe_;

  std::vector<std::unique_ptr<LeafServer>> leaves_;
  std::vector<uint64_t> acked_rows_;
  Aggregator agg_;
  std::vector<uint32_t> narrow_digest_;               // per table
  std::vector<std::vector<uint32_t>> history_digest_; // [leaf][table]

  uint64_t next_batch_ = 0;
  uint64_t ingested_rows_ = 0;
  int64_t serve_start_us_ = 0;
  uint64_t round_ = 0;
  size_t dashboard_cursor_ = 0;
  uint64_t adhoc_cursor_ = 0;

  // Operation accounting.
  uint64_t restarts_ = 0, restarts_failed_ = 0;
  uint64_t queries_ = 0, queries_failed_ = 0;
  uint64_t batches_ = 0, batches_failed_ = 0;
  uint64_t errors_ = 0;
  uint64_t probe_failures_ = 0;
  double run_wall_s_ = 0;

  Samples s_;
  uint64_t sealed_bytes_ = 0, sealed_rows_ = 0, backup_bytes_ = 0;
};

bool Bench::Execute(size_t table, const Query& q, QueryResult* out,
                    double* wall_ms) {
  ++queries_;
  const int64_t start = NowMicros();
  auto r = [&] {
    ScopedSpan span(recorder_.get(), "query");
    return agg_.Execute(q);
  }();
  if (wall_ms != nullptr) {
    *wall_ms = static_cast<double>(NowMicros() - start) / 1e3;
  }
  if (!r.ok()) {
    ++queries_failed_;
    Fail("query on " + q.table + " failed: " + r.status().ToString());
    return false;
  }
  if (r->leaves_responded != r->leaves_total) {
    ++queries_failed_;
    Fail("partial result on " + q.table + ": " +
         std::to_string(r->leaves_responded) + "/" +
         std::to_string(r->leaves_total));
    return false;
  }
  std::string why;
  ScopedSpan span(recorder_.get(), "oracle_check");
  if (!oracle_.Check(table, q, *r, &why)) {
    Fail("oracle mismatch on " + q.Fingerprint() + ": " + why);
    return false;
  }
  *out = std::move(*r);
  return true;
}

bool Bench::Ingest(size_t batch_rows, double* add_ms) {
  const size_t table = kLiveTable;
  const size_t leaf = next_batch_ % kLeaves;
  ++next_batch_;
  std::vector<CompactRow> compact;
  std::vector<Row> rows;
  compact.reserve(batch_rows);
  rows.reserve(batch_rows);
  for (size_t i = 0; i < batch_rows; ++i) {
    compact.push_back(streams_[table].Next());
    rows.push_back(ToRow(compact.back()));
  }
  ++batches_;
  scuba::Status st;
  {
    ScopedSpan span(recorder_.get(), "add_rows");
    int64_t start = NowMicros();
    st = leaves_[leaf]->AddRows(kTableNames[table], rows);
    *add_ms = static_cast<double>(NowMicros() - start) / 1e3;
  }
  if (!st.ok()) {
    ++batches_failed_;
    Fail("AddRows failed: " + st.ToString());
    return false;
  }
  for (const CompactRow& r : compact) oracle_.Add(table, r);
  acked_rows_[leaf] += batch_rows;
  return true;
}

uint32_t Bench::LeafDigest(size_t leaf, size_t table, bool* ok) {
  Query q = ProbeQuery(table, /*narrow=*/false);
  auto r = leaves_[leaf]->ExecuteQuery(q);
  if (!r.ok()) {
    *ok = false;
    Fail("history probe on leaf " + std::to_string(leaf) + ": " +
         r.status().ToString());
    return 0;
  }
  return scuba::ResultDigest(*r, q.aggregates);
}

bool Bench::Setup() {
  ScopedSpan span(recorder_.get(), "setup");
  std::error_code ec;
  fs::remove_all(data_dir_, ec);
  scuba::ShmSegment::RemoveAll("/" + prefix_);
  acked_rows_.assign(kLeaves, 0);
  for (size_t i = 0; i < kLeaves; ++i) {
    LeafServerConfig c = Config(i, false);
    fs::create_directories(c.backup_dir, ec);
    if (ec) {
      Fail("cannot create " + c.backup_dir + ": " + ec.message());
      return false;
    }
    leaves_.push_back(std::make_unique<LeafServer>(c));
    auto started = leaves_.back()->Start();
    if (!started.ok()) {
      Fail("fresh start failed: " + started.status().ToString());
      return false;
    }
  }
  agg_.EnableResultCache(kResultCacheBytes);
  agg_.SetParallelFanout(true);
  PointAggregator();

  // Load: each table's chronological stream in batches, round-robin over
  // the leaves, so every leaf holds every time range of every table.
  for (size_t t = 0; t < kTables; ++t) {
    for (size_t b = 0; b * kLoadBatchRows < kInitialRowsPerTable; ++b) {
      const size_t leaf = b % kLeaves;
      std::vector<Row> rows;
      rows.reserve(kLoadBatchRows);
      std::vector<CompactRow> compact;
      compact.reserve(kLoadBatchRows);
      for (size_t i = 0; i < kLoadBatchRows; ++i) {
        compact.push_back(streams_[t].Next());
        rows.push_back(ToRow(compact.back()));
      }
      scuba::Status st = leaves_[leaf]->AddRows(kTableNames[t], rows);
      if (!st.ok()) {
        Fail("load failed: " + st.ToString());
        return false;
      }
      for (const CompactRow& r : compact) oracle_.Add(t, r);
      acked_rows_[leaf] += rows.size();
    }
  }

  // Reference digests of the fixed-data probes, oracle-checked once here.
  narrow_digest_.assign(kTables, 0);
  for (size_t t = 0; t < kTables; ++t) {
    Query q = ProbeQuery(t, /*narrow=*/true);
    QueryResult r;
    if (!Execute(t, q, &r, nullptr)) return false;
    narrow_digest_[t] = scuba::ResultDigest(r, q.aggregates);
    Query h = ProbeQuery(t, /*narrow=*/false);
    if (!Execute(t, h, &r, nullptr)) return false;
  }
  history_digest_.assign(kLeaves, std::vector<uint32_t>(kTables, 0));
  bool ok = true;
  for (size_t i = 0; i < kLeaves; ++i) {
    for (size_t t = 0; t < kTables; ++t) {
      history_digest_[i][t] = LeafDigest(i, t, &ok);
    }
  }

  for (size_t i = 0; i < kLeaves; ++i) {
    for (const auto& ts : leaves_[i]->GetStats().tables) {
      sealed_bytes_ += ts.heap_bytes;
      sealed_rows_ += ts.row_count - ts.buffered_rows;
    }
    backup_bytes_ += DirBytes(Config(i, false).backup_dir);
  }
  return ok;
}

bool Bench::CheckLeafAfterRestart(size_t leaf) {
  bool ok = true;
  if (leaves_[leaf]->RowCount() != acked_rows_[leaf]) {
    Fail("leaf " + std::to_string(leaf) + " holds " +
         std::to_string(leaves_[leaf]->RowCount()) + " rows, acknowledged " +
         std::to_string(acked_rows_[leaf]));
    ok = false;
  }
  uint64_t total = 0;
  for (auto& l : leaves_) total += l->RowCount();
  if (total != oracle_.TotalRows()) {
    Fail("cluster holds " + std::to_string(total) + " rows, acknowledged " +
         std::to_string(oracle_.TotalRows()));
    ok = false;
  }
  for (size_t t = 0; t < kTables; ++t) {
    uint32_t d = LeafDigest(leaf, t, &ok);
    if (d != history_digest_[leaf][t]) {
      Fail("history digest changed across a restart of leaf " +
           std::to_string(leaf));
      ok = false;
    }
  }
  return ok;
}

void Bench::RestartCycle(bool instant) {
  const size_t i = round_ % kLeaves;
  ++restarts_;
  if (recorder_ != nullptr) recorder_->set_cycle(static_cast<uint32_t>(round_ + 1));
  ScopedSpan cycle_span(recorder_.get(), instant ? "cycle_instant"
                                                 : "cycle_blocking");
  bool ok = true;

  // Going down.
  const int64_t t0 = NowMicros();
  scuba::ShutdownStats ss;
  scuba::FootprintTracker footprint;
  {
    ScopedSpan span(recorder_.get(), "go_down");
    if (w_.clean_shutdown) {
      ScopedSpan inner(recorder_.get(), "shutdown_to_shm");
      Usage u0 = ReadUsage();
      scuba::Status st = leaves_[i]->ShutdownToSharedMemory(&ss, &footprint);
      Usage u1 = ReadUsage();
      if (!st.ok()) {
        Fail("shutdown failed: " + st.ToString());
        ok = false;
      }
      const double secs = static_cast<double>(ss.elapsed_micros.load()) / 1e6;
      s_.shutdown_s.push_back(secs);
      s_.shutdown_gib_s.push_back(secs > 0 ? Gib(ss.bytes_copied) / secs : 0);
      s_.shutdown_faults.push_back(
          static_cast<double>(u1.minor_faults - u0.minor_faults));
      s_.segment_grows.push_back(
          static_cast<double>(ss.segment_grow_count.load()));
      const uint64_t bound =
          ss.bytes_copied.load() + kInFlightCopyBytes + kFootprintSlackBytes;
      if (footprint.peak() > bound) {
        Fail("shutdown footprint " + std::to_string(footprint.peak()) +
             " exceeds live data + in-flight budget " + std::to_string(bound));
        ok = false;
      }
    } else {
      ScopedSpan inner(recorder_.get(), "crash");
      leaves_[i]->Crash();
    }
    leaves_[i].reset();
  }

  // Coming up.
  leaves_[i] = std::make_unique<LeafServer>(Config(i, instant));
  PointAggregator();
  Usage u0 = ReadUsage();
  const int64_t ts = NowMicros();
  auto started = [&] {
    ScopedSpan span(recorder_.get(), "start");
    return leaves_[i]->Start();
  }();
  const int64_t te = NowMicros();
  Usage u1 = ReadUsage();
  if (!started.ok()) {
    Fail("successor start failed: " + started.status().ToString());
    ++restarts_failed_;
    return;
  }

  RecoveryResult rec = *started;
  uint64_t bytes_in = 0;
  if (!instant) {
    if (leaves_[i]->state() != LeafState::kAlive) {
      Fail("blocking start returned before ALIVE");
      ok = false;
    }
    s_.downtime_s.push_back(static_cast<double>(te - t0) / 1e6);
    const double secs = static_cast<double>(te - ts) / 1e6;
    uint64_t bytes = 0;
    if (rec.source == RecoverySource::kSharedMemory) {
      bytes = rec.shm_stats.bytes_copied;
    } else if (w_.format == BackupFormatKind::kColumnar) {
      bytes = rec.columnar_stats.bytes_read;
    } else {
      bytes = rec.disk_stats.bytes_read;
    }
    bytes_in = rec.shm_stats.bytes_copied;
    s_.restore_core_s.push_back(secs);
    s_.restore_bytes.push_back(static_cast<double>(bytes));
    s_.restore_gib_s.push_back(secs > 0 ? Gib(bytes) / secs : 0);
    s_.restore_faults.push_back(
        static_cast<double>(u1.minor_faults - u0.minor_faults));
    s_.restore_cpu_s.push_back(u1.cpu_s - u0.cpu_s);
    if (w_.format == BackupFormatKind::kColumnar) {
      s_.cols_read_s.push_back(
          static_cast<double>(rec.columnar_stats.read_micros) / 1e6);
      s_.cols_adopt_s.push_back(
          static_cast<double>(rec.columnar_stats.translate_micros) / 1e6);
      s_.cols_tail_rows.push_back(
          static_cast<double>(rec.columnar_stats.tail_rows_recovered));
    } else if (rec.source == RecoverySource::kDisk) {
      s_.disk_read_s.push_back(
          static_cast<double>(rec.disk_stats.read_micros) / 1e6);
      s_.disk_translate_s.push_back(
          static_cast<double>(rec.disk_stats.translate_micros) / 1e6);
      s_.disk_bytes_read.push_back(
          static_cast<double>(rec.disk_stats.bytes_read));
      s_.disk_rows.push_back(
          static_cast<double>(rec.disk_stats.rows_recovered));
    }
    // A blocking post-restart query through the aggregator.
    Query q = ProbeQuery(0, /*narrow=*/true);
    QueryResult r;
    if (!Execute(0, q, &r, nullptr) ||
        scuba::ResultDigest(r, q.aggregates) != narrow_digest_[0]) {
      Fail("post-restart probe digest differs");
      ok = false;
    }
  } else {
    s_.instant_open_s.push_back(static_cast<double>(te - ts) / 1e6);
    scuba::InstantRestoreEngine* engine = leaves_[i]->instant_restore_engine();
    if (engine == nullptr) {
      Fail("instant restart fell back to the blocking path");
      ok = false;
    } else if (!w_.clean_shutdown) {
      // Row-major .bak files restore as whole-table units, .cols files
      // block by block: the unit shape names the backup format used.
      const auto& units = engine->source().units();
      const bool whole_tables = !units.empty() && units.front().whole_table;
      if (whole_tables != (w_.format == BackupFormatKind::kRowMajor)) {
        Fail("instant restore used the wrong backup format");
        ok = false;
      }
    }
    // First complete, digest-checked query that needs the restarting leaf.
    Query q = ProbeQuery(0, /*narrow=*/true);
    QueryResult r;
    {
      ScopedSpan span(recorder_.get(), "first_query");
      if (!Execute(0, q, &r, nullptr) ||
          scuba::ResultDigest(r, q.aggregates) != narrow_digest_[0]) {
        Fail("first query during restore: wrong digest");
        ok = false;
      }
    }
    s_.first_query_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    s_.restore_wait_ms.push_back(
        static_cast<double>(r.profile().restore_wait_micros) / 1e3);
    // Keep querying until the successor is ALIVE.
    {
      ScopedSpan span(recorder_.get(), "serve_while_restoring");
      size_t k = 0;
      while (leaves_[i]->state() != LeafState::kAlive) {
        if (NowMicros() - t0 > kRestoreGuardMicros) {
          Fail("instant restore did not finish within the guard");
          ok = false;
          break;
        }
        size_t t = (k++) % kTables;
        Query p = ProbeQuery(t, /*narrow=*/true);
        if (!Execute(t, p, &r, nullptr) ||
            scuba::ResultDigest(r, p.aggregates) != narrow_digest_[t]) {
          Fail("query during restore: wrong digest");
          ok = false;
          break;
        }
      }
    }
    s_.restore_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    if (engine != nullptr) {
      auto progress = engine->progress();
      if (!progress.finished || progress.cancelled) {
        Fail("instant restore was cancelled");
        ok = false;
      }
      s_.on_demand.push_back(static_cast<double>(progress.blocks_on_demand));
      s_.background.push_back(static_cast<double>(progress.blocks_background));
      bytes_in = engine->stats().bytes_copied;
    }
    rec = leaves_[i]->last_recovery();
  }

  // Recovered from the intended source, and nothing else.
  const RecoverySource expected = w_.clean_shutdown
                                      ? RecoverySource::kSharedMemory
                                      : RecoverySource::kDisk;
  if (rec.source != expected) {
    Fail(std::string("recovered from ") +
         std::string(scuba::RecoverySourceName(rec.source)) + ", expected " +
         std::string(scuba::RecoverySourceName(expected)));
    ok = false;
  }
  if (!instant && rec.source == RecoverySource::kDisk) {
    const bool used_cols = rec.columnar_stats.tables_recovered > 0;
    const bool used_bak = rec.disk_stats.tables_recovered > 0;
    const bool want_cols = w_.format == BackupFormatKind::kColumnar;
    if (used_cols != want_cols || used_bak == want_cols) {
      Fail("disk recovery used the wrong backup format");
      ok = false;
    }
  }
  if (w_.clean_shutdown && bytes_in != ss.bytes_copied.load()) {
    Fail("shm bytes copied out " + std::to_string(ss.bytes_copied.load()) +
         " != copied in " + std::to_string(bytes_in));
    ok = false;
  }
  if (!CheckLeafAfterRestart(i)) ok = false;
  if (!ok) ++restarts_failed_;
}

void Bench::ServeRound() {
  ScopedSpan round_span(recorder_.get(), "serve");
  const int total = w_.dashboard_per_round + w_.adhoc_per_round;
  double add_ms_round = 0;
  uint64_t rows_round = 0;
  for (int k = 0; k < total; ++k) {
    // Open-loop ingest: catch up with the wall-clock schedule first.
    const double due = static_cast<double>(w_.ingest_rows_per_second) *
                       static_cast<double>(NowMicros() - serve_start_us_) /
                       1e6;
    while (static_cast<double>(ingested_rows_) + w_.ingest_batch_rows <= due) {
      double ms = 0;
      if (Ingest(w_.ingest_batch_rows, &ms)) {
        s_.add_rows_ms.push_back(ms);
        add_ms_round += ms;
        rows_round += w_.ingest_batch_rows;
      }
      ingested_rows_ += w_.ingest_batch_rows;
    }

    // Ad-hoc queries spread evenly through the round.
    const bool adhoc = (k + 1) * w_.adhoc_per_round / total !=
                       k * w_.adhoc_per_round / total;
    QueryResult r;
    double ms = 0;
    if (adhoc) {
      size_t table = 0;
      Query q = AdhocQuery(adhoc_cursor_++, &adhoc_rng_, &table);
      if (!Execute(table, q, &r, &ms)) continue;
      s_.adhoc_ms.push_back(ms);
      const auto& p = r.profile();
      s_.decode_ms.push_back(static_cast<double>(p.decode_micros) / 1e3);
      s_.kernel_ms.push_back(static_cast<double>(p.kernel_micros) / 1e3);
      s_.merge_ms.push_back(static_cast<double>(p.merge_micros) / 1e3);
      s_.prune_ms.push_back(static_cast<double>(p.prune_micros) / 1e3);
      s_.rows_scanned.push_back(static_cast<double>(p.rows_scanned));
      s_.bytes_decoded.push_back(static_cast<double>(p.bytes_decoded));
      s_.adhoc_blocks_pruned += p.blocks_time_pruned + p.blocks_zone_pruned;
      s_.adhoc_blocks_total +=
          p.blocks_scanned + p.blocks_time_pruned + p.blocks_zone_pruned;
    } else {
      const size_t table = w_.dashboard_table;
      // The window ends at the last whole bucket before the newest row.
      const int64_t newest = oracle_.MaxTime(table);
      const int64_t end = (newest / kBucketSeconds) * kBucketSeconds - 1;
      Query q = DashboardQuery(dashboard_cursor_++ % kDashboardShapes, table,
                               end + 1 - w_.dashboard_window_seconds, end);
      if (!Execute(table, q, &r, &ms)) continue;
      s_.dashboard_ms.push_back(ms);
      const auto& p = r.profile();
      s_.cache_hit += p.cache_hit_buckets;
      s_.cache_miss += p.cache_miss_buckets;
      s_.leaf_execute_ms.push_back(
          static_cast<double>(p.leaf_execute_micros) / 1e3);
    }
    s_.fanout_wait_ms.push_back(
        static_cast<double>(r.profile().fanout_queue_wait_micros) / 1e3);
  }
  if (add_ms_round > 0) {
    s_.ingest_rows_per_s.push_back(static_cast<double>(rows_round) /
                                   (add_ms_round / 1e3));
  }
}

void Bench::ProbeHost() {
  ScopedSpan span(recorder_.get(), "host_probe");
  if (probe_ == nullptr) {
    probe_ = std::make_unique<HostProbe>(data_dir_ + "/probe.bin");
  }
  HostProbe::Sample p;
  if (!probe_->ok() || !probe_->Run(&p)) {
    ++probe_failures_;
    return;
  }
  s_.memcpy_gib_s.push_back(p.memcpy_gib_s);
  s_.first_touch_gib_s.push_back(p.first_touch_gib_s);
  s_.seq_read_gib_s.push_back(p.seq_read_gib_s);
  s_.crc_gib_s.push_back(p.crc32c_gib_s);
}

void Bench::Run(double seconds) {
  serve_start_us_ = NowMicros();
  const int64_t budget = static_cast<int64_t>(seconds * 1e6);
  // Whole rounds only; at least one blocking and one instant cycle.
  while (round_ < 2 || NowMicros() - serve_start_us_ < budget) {
    RestartCycle(/*instant=*/round_ % 2 == 1);
    ProbeHost();
    ServeRound();
    ++round_;
  }
  run_wall_s_ = static_cast<double>(NowMicros() - serve_start_us_) / 1e6;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Bench::Report(bool trace, double setup_s, const std::string& out_dir) {
  std::vector<Metric> m;
  const double dashboard = InterquartileMean(s_.dashboard_ms);
  const double adhoc = InterquartileMean(s_.adhoc_ms);
  const double downtime = InterquartileMean(s_.downtime_s);
  const double first_query = InterquartileMean(s_.first_query_s);
  const double restore = InterquartileMean(s_.restore_s);
  const double ingest = InterquartileMean(s_.ingest_rows_per_s);
  if (!trace) {
    m = {{"setup_s", setup_s, "s"},
         {"downtime_s", downtime, "s"},
         {"first_query_s", first_query, "s"},
         {"restore_s", restore, "s"},
         {"dashboard_query_ms", dashboard, "ms"},
         {"adhoc_query_ms", adhoc, "ms"},
         {"ingest_rows_per_s", ingest, "rows/s"},
         {"peak_rss_mib", PeakRssMiB(), "MiB"}};
  } else {
    const double memcpy_c = Median(s_.memcpy_gib_s);
    const double touch_c = Median(s_.first_touch_gib_s);
    const double read_c = Median(s_.seq_read_gib_s);
    const double crc_c = Median(s_.crc_gib_s);
    const double shutdown_gib_s = Median(s_.shutdown_gib_s);
    const double restore_gib_s = Median(s_.restore_gib_s);
    // Shutdown writes into fresh shm pages: first-touch bound. A shm
    // restore writes fresh heap pages and verifies every block's CRC32C;
    // a disk restore reads the page-cached backup files.
    const double restore_ceiling =
        w_.clean_shutdown
            ? (touch_c > 0 && crc_c > 0 ? 1.0 / (1.0 / touch_c + 1.0 / crc_c)
                                        : 0)
            : read_c;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double pruned_share =
        s_.adhoc_blocks_total == 0
            ? 0
            : static_cast<double>(s_.adhoc_blocks_pruned) /
                  static_cast<double>(s_.adhoc_blocks_total);
    const double hit_share =
        s_.cache_hit + s_.cache_miss == 0
            ? 0
            : static_cast<double>(s_.cache_hit) /
                  static_cast<double>(s_.cache_hit + s_.cache_miss);
    const double spans = recorder_ != nullptr
                             ? static_cast<double>(recorder_->size())
                             : 0.0;
    // Tracing cost: calibrated per-span cost times spans recorded.
    SpanRecorder calib;
    const int64_t c0 = NowMicros();
    for (int k = 0; k < 20000; ++k) calib.End(calib.Begin("calibration"));
    const double per_span_s = static_cast<double>(NowMicros() - c0) / 1e6 /
                              20000.0;
    m = {
        {"core.shutdown_s", Median(s_.shutdown_s), "s"},
        {"core.shutdown_gib_s", shutdown_gib_s, "GiB/s"},
        {"core.shutdown_minor_faults", Median(s_.shutdown_faults), "count"},
        {"core.segment_grows", Median(s_.segment_grows), "count"},
        {"core.shutdown_ceiling_ratio", ratio(shutdown_gib_s, touch_c),
         "ratio"},
        {"core.restore_s", Median(s_.restore_core_s), "s"},
        {"core.restore_gib_s", restore_gib_s, "GiB/s"},
        {"core.restore_bytes", Median(s_.restore_bytes), "B"},
        {"core.restore_minor_faults", Median(s_.restore_faults), "count"},
        {"core.restore_cpu_s", Median(s_.restore_cpu_s), "s"},
        {"core.restore_ceiling_ratio", ratio(restore_gib_s, restore_ceiling),
         "ratio"},
        {"core.instant.open_s", Median(s_.instant_open_s), "s"},
        {"core.instant.blocks_on_demand", Median(s_.on_demand), "count"},
        {"core.instant.blocks_background", Median(s_.background), "count"},
        {"query.restore_wait_ms", Median(s_.restore_wait_ms), "ms"},
        {"disk.read_s", Median(s_.disk_read_s), "s"},
        {"disk.translate_s", Median(s_.disk_translate_s), "s"},
        {"disk.bytes_read", Median(s_.disk_bytes_read), "B"},
        {"disk.rows_recovered", Median(s_.disk_rows), "count"},
        {"disk.cols.read_s", Median(s_.cols_read_s), "s"},
        {"disk.cols.adopt_s", Median(s_.cols_adopt_s), "s"},
        {"disk.cols.tail_rows", Median(s_.cols_tail_rows), "count"},
        {"server.add_rows_ms", Median(s_.add_rows_ms), "ms"},
        {"columnar.sealed_bytes_per_row",
         sealed_rows_ == 0 ? 0
                           : static_cast<double>(sealed_bytes_) /
                                 static_cast<double>(sealed_rows_),
         "B/row"},
        {"disk.backup_bytes_per_row",
         static_cast<double>(backup_bytes_) /
             static_cast<double>(kTables * kInitialRowsPerTable),
         "B/row"},
        {"query.decode_ms", Median(s_.decode_ms), "ms"},
        {"query.kernel_ms", Median(s_.kernel_ms), "ms"},
        {"query.merge_ms", Median(s_.merge_ms), "ms"},
        {"query.prune_ms", Median(s_.prune_ms), "ms"},
        {"query.rows_scanned", Median(s_.rows_scanned), "count"},
        {"query.bytes_decoded", Median(s_.bytes_decoded), "B"},
        {"query.blocks_pruned_share", pruned_share, "ratio"},
        {"server.cache_hit_share", hit_share, "ratio"},
        {"server.leaf_execute_ms", Median(s_.leaf_execute_ms), "ms"},
        {"server.fanout_queue_wait_ms", Median(s_.fanout_wait_ms), "ms"},
        {"util.crc32c_gib_s", crc_c, "GiB/s"},
        {"host.memcpy_gib_s", memcpy_c, "GiB/s"},
        {"host.first_touch_gib_s", touch_c, "GiB/s"},
        {"host.seq_read_gib_s", read_c, "GiB/s"},
        {"ops.restarts", static_cast<double>(restarts_), "count"},
        {"ops.queries", static_cast<double>(queries_), "count"},
        {"ops.ingest_batches", static_cast<double>(batches_), "count"},
        {"trace.spans", spans, "count"},
        {"trace.overhead_share",
         run_wall_s_ > 0 ? spans * per_span_s / run_wall_s_ : 0, "ratio"},
        {"traced.setup_s", setup_s, "s"},
        {"traced.downtime_s", downtime, "s"},
        {"traced.first_query_s", first_query, "s"},
        {"traced.restore_s", restore, "s"},
        {"traced.dashboard_query_ms", dashboard, "ms"},
        {"traced.adhoc_query_ms", adhoc, "ms"},
        {"traced.ingest_rows_per_s", ingest, "rows/s"},
    };
    // Spans, their per-name self times and the program's own restart
    // reports (phase timelines) go next to each other in the out dir.
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    const std::string tag =
        std::string(w_.name) + "_seed" + std::to_string(seed_);
    char header[256];
    std::snprintf(header, sizeof(header),
                  "\"workload\": \"%s\", \"seed\": %llu, \"run_s\": %.3f",
                  w_.name, static_cast<unsigned long long>(seed_),
                  run_wall_s_);
    if (recorder_ == nullptr ||
        !recorder_->WriteJson(out_dir + "/trace_" + tag + ".json", header)) {
      std::fprintf(stderr, "restartbench: cannot write the trace to %s\n",
                   out_dir.c_str());
    }
    const std::string reports = out_dir + "/reports_" + tag;
    fs::create_directories(reports, ec);
    for (size_t i = 0; i < kLeaves; ++i) {
      for (const auto& e :
           fs::directory_iterator(Config(i, false).backup_dir, ec)) {
        if (e.path().extension() == ".json") {
          fs::copy_file(e.path(), reports + "/" + e.path().filename().string(),
                        fs::copy_options::overwrite_existing, ec);
        }
      }
    }
  }

  std::fprintf(stderr,
               "restartbench: %s seed %llu: %llu rounds in %.2f s; restarts "
               "%llu (%llu failed), queries %llu (%llu failed), batches %llu "
               "(%llu failed), %llu check failures, probe checksum %08x\n",
               w_.name, static_cast<unsigned long long>(seed_),
               static_cast<unsigned long long>(round_), run_wall_s_,
               static_cast<unsigned long long>(restarts_),
               static_cast<unsigned long long>(restarts_failed_),
               static_cast<unsigned long long>(queries_),
               static_cast<unsigned long long>(queries_failed_),
               static_cast<unsigned long long>(batches_),
               static_cast<unsigned long long>(batches_failed_),
               static_cast<unsigned long long>(errors_),
               probe_ != nullptr ? probe_->checksum() : 0u);
  if (probe_failures_ > 0) {
    Fail("host probe failed " + std::to_string(probe_failures_) + " times");
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(restarts_ + queries_ + batches_) +
          ", \"failed\": " +
          std::to_string(restarts_failed_ + queries_failed_ + batches_failed_) +
          ", \"metrics\": {";
  for (size_t k = 0; k < m.size(); ++k) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", m[k].value);
    json += (k == 0 ? "\"" : ", \"") + m[k].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv, int64_t process_start_us) {
  std::string workload, data_dir, out_dir;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') seconds = -1;
    } else if (key == "--trace") {
      trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (key == "--data-dir") {
      data_dir = val;
    } else if (key == "--out-dir") {
      out_dir = val;
    } else {
      std::fprintf(stderr, "restartbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr || !have_seed || !(seconds > 0) || trace < 0 ||
      data_dir.empty() || out_dir.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: restartbench --workload "
                 "<shm_rollover|crash_rowmajor|crash_columnar> --seed <n> "
                 "--seconds <s> --trace <0|1> --data-dir <dir> "
                 "--out-dir <dir>\n");
    return 2;
  }

  bool ok = false;
  {
    Bench bench(*w, seed, trace == 1, data_dir);
    if (bench.Setup()) {
      const double setup_s =
          static_cast<double>(NowMicros() - process_start_us) / 1e6;
      bench.Run(seconds);
      bench.Report(trace == 1, setup_s, out_dir);
      ok = bench.correct();
    }
  }
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace restartbench

int main(int argc, char** argv) {
  const int64_t start = restartbench::NowMicros();
  // A closed stdout must not skip the shm and backup clean-up at exit.
  std::signal(SIGPIPE, SIG_IGN);
  return restartbench::Main(argc, argv, start);
}
